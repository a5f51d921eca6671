package bench

import (
	"fmt"

	"cclbtree/internal/index"
)

// Experiment is one regenerable table or figure from the paper.
type Experiment struct {
	// Name is the CLI id ("fig3", "table1", "ablation-gc", ...).
	Name string
	// Desc summarizes what the paper's figure/table shows.
	Desc string
	// Run executes the experiment at the given scale.
	Run func(Scale) ([]*Table, error)
}

// All returns every experiment, paper order first, extras last.
func All() []Experiment {
	return []Experiment{
		{"fig2", "CLI vs XBI impact on raw device time (§2.2)", Fig2},
		{"fig3", "write amplification + exec time, uniform (§2.3)", Fig3},
		{"fig4", "write amplification + exec time, Zipfian 0.9 (§2.3)", Fig4},
		{"fig5", "range query throughput vs scan size (§2.3)", Fig5},
		{"fig10", "micro-benchmark ops vs threads (§5.2)", Fig10},
		{"fig11", "YCSB mixes vs threads (§5.2)", Fig11},
		{"fig12", "insert/search latency percentiles (§5.2)", Fig12},
		{"fig13", "ablation Base/+BNode/+WLog + XBI split (§5.3)", Fig13},
		{"fig14", "GC strategy throughput timeline (§5.3)", Fig14},
		{"table1", "Nbatch sensitivity (§5.4)", Table1Exp},
		{"table2", "THlog sensitivity (§5.4)", Table2Exp},
		{"fig15a", "skewness sensitivity (§5.4)", Fig15a},
		{"fig15b", "variable-size KV insert throughput (§5.4)", Fig15b},
		{"fig15c", "large-value insert throughput (§5.4)", Fig15c},
		{"fig15d", "dataset size sensitivity (§5.4)", Fig15d},
		{"fig16", "eADR-mode insert throughput (§5.5)", Fig16},
		{"fig17", "recovery time (§5.5)", Fig17},
		{"fig18", "DRAM/PM consumption vs value size (§5.5)", Fig18},
		{"fig19", "realistic SOSD-like datasets (§5.5)", Fig19},
		{"table3", "vs log-structured stores (§5.5)", Table3Exp},
		{"ycsbb", "extra: YCSB-B contention/heat/segment profile", YCSBB},
		{"ycsbc", "extra: YCSB-C read-only scaling of the lock-free read path, 1 to 8 threads", YCSBC},
		{"batch", "extra: Session.Apply group commit vs per-op writes", BatchExp},
		{"shards", "extra: serving-tier shard scaling, 1..8 commit lanes", ShardsExp},
		{"ablation-cache", "extra: buffer-node read caching by Nbatch", AblationCache},
		{"ablation-gc", "extra: GC strategy media traffic", AblationGC},
		{"extension-hash", "extra: §6 techniques applied to a hash table", ExtensionHash},
	}
}

// ByName finds an experiment.
func ByName(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// lineupResult pairs an index name with its run result.
type lineupResult struct {
	Name string
	Res  *Result
}

// runOne measures spec against one factory on a fresh pool.
func runOne(f index.Factory, spec Spec) (*lineupResult, error) {
	pool := NewPool(spec.Warm+spec.Ops, spec.Threads)
	idx, err := f(pool)
	if err != nil {
		return nil, err
	}
	defer idx.Close()
	res, err := Run(pool, idx, spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", idx.Name(), err)
	}
	return &lineupResult{Name: idx.Name(), Res: res}, nil
}
