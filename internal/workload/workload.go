// Package workload generates the paper's benchmark inputs: uniform and
// Zipfian key streams (§2.3, §5.4), the five YCSB mixes of §5.2,
// synthetic stand-ins for the four SOSD datasets of §5.5, and
// variable-size KV material for Fig 15b/c.
//
// Everything is deterministic given a seed, so experiments are
// reproducible run to run.
package workload

import (
	"math"
	"math/rand"
)

// mix64 is the SplitMix64 finalizer, used to scramble key spaces.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nonZero maps a word into the index-legal key space (key 0 and the
// tag bits are reserved).
func nonZero(x uint64) uint64 {
	x &= 1<<62 - 1
	if x == 0 {
		return 1
	}
	return x
}

// Key is the key of a 1-based rank: the rank scrambled across the legal
// key space. Every generator here and every harness that loads "key i"
// uses it, so a loaded key set and an access stream over the same ranks
// always meet.
func Key(rank uint64) uint64 { return nonZero(mix64(rank)) }

// Access produces a stream of keys to operate on.
type Access interface {
	// Next returns the next key using r as the randomness source.
	Next(r *rand.Rand) uint64
}

// Uniform draws keys uniformly from a scrambled space of n keys.
type Uniform struct {
	N uint64
}

// Next implements Access.
func (u Uniform) Next(r *rand.Rand) uint64 {
	return Key(r.Uint64()%u.N + 1)
}

// Sequential replays the scrambled key space in order (load phases).
type Sequential struct {
	N    uint64
	next uint64
}

// Next implements Access: cycles through all N distinct keys.
func (s *Sequential) Next(r *rand.Rand) uint64 {
	s.next++
	if s.next > s.N {
		s.next = 1
	}
	return Key(s.next)
}

// Zipf draws keys from the same scrambled space with a Zipfian
// distribution (Gray et al.'s generator, as in YCSB). Theta is the
// skew coefficient the paper sweeps from 0.5 to 0.99 (Fig 15a).
type Zipf struct {
	n            uint64
	theta        float64
	alpha, zetan float64
	eta, zeta2   float64
}

// NewZipf builds a generator over n keys with skew theta ∈ (0,1).
func NewZipf(n uint64, theta float64) *Zipf {
	z := &Zipf{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next implements Access.
func (z *Zipf) Next(r *rand.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 1
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 2
	default:
		rank = 1 + uint64(float64(z.n)*math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank > z.n {
		rank = z.n
	}
	// Scramble so hot keys scatter across the key space (ScrambledZipfian).
	return Key(rank)
}

// OpKind is one YCSB operation type.
type OpKind int

// Operation kinds.
const (
	OpInsert OpKind = iota
	OpRead
	OpUpdate
	OpScan
	OpDelete
)

// Mix is an operation mixture; weights need not sum to 1 (they are
// normalized).
type Mix struct {
	Insert, Read, Update, Scan, Delete float64
	// ScanLen is the range-query length for OpScan (the paper uses 100
	// by default, 50–400 in Fig 5).
	ScanLen int
}

// The five YCSB-style mixes of Fig 11 plus the micro-benchmark mixes.
var (
	MixInsertOnly      = Mix{Insert: 1}
	MixInsertIntensive = Mix{Insert: 0.75, Read: 0.25}
	MixReadIntensive   = Mix{Insert: 0.25, Read: 0.75}
	MixReadOnly        = Mix{Read: 1}
	MixScanInsert      = Mix{Scan: 0.95, Insert: 0.05, ScanLen: 100}
)

// Pick draws an operation kind from the mix.
func (m Mix) Pick(r *rand.Rand) OpKind {
	total := m.Insert + m.Read + m.Update + m.Scan + m.Delete
	u := r.Float64() * total
	switch {
	case u < m.Insert:
		return OpInsert
	case u < m.Insert+m.Read:
		return OpRead
	case u < m.Insert+m.Read+m.Update:
		return OpUpdate
	case u < m.Insert+m.Read+m.Update+m.Scan:
		return OpScan
	default:
		return OpDelete
	}
}

// Dataset names the realistic key sets of Fig 19.
type Dataset string

// The four SOSD stand-ins.
const (
	DatasetAmzn     Dataset = "amzn"
	DatasetOsm      Dataset = "osm"
	DatasetWiki     Dataset = "wiki"
	DatasetFacebook Dataset = "facebook"
)

// Keys synthesizes n distinct keys with the statistical character of
// the SOSD dataset (§5.5):
//
//	amzn      book-popularity ranks: heavy clustering with long gaps
//	osm       OpenStreetMap cell ids: uniform over 64-bit space
//	wiki      edit timestamps: nearly sequential with small jitter
//	facebook  sampled user ids: uniform hashes
func Keys(d Dataset, n int, seed int64) []uint64 {
	r := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	switch d {
	case DatasetAmzn:
		// Clusters of popular items: lognormal gaps.
		cur := uint64(1)
		for i := range keys {
			gap := uint64(math.Exp(r.NormFloat64()*2+2)) + 1
			cur += gap
			keys[i] = nonZero(cur)
		}
	case DatasetOsm:
		seen := make(map[uint64]struct{}, n)
		for i := 0; i < n; {
			k := nonZero(r.Uint64())
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			keys[i] = k
			i++
		}
	case DatasetWiki:
		// Timestamps: one-second ticks with jitter, strictly increasing.
		cur := uint64(1_500_000_000)
		for i := range keys {
			cur += 1 + uint64(r.Intn(3))
			keys[i] = nonZero(cur)
		}
	case DatasetFacebook:
		for i := range keys {
			keys[i] = Key(uint64(i+1) * 0x9e3779b97f4a7c15)
		}
	default:
		for i := range keys {
			keys[i] = Key(uint64(i + 1))
		}
	}
	// Insert order is random, as when replaying a shuffled dataset.
	r.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// VarSizer generates variable-size keys and values in [Min,Max] bytes
// (Fig 15b draws both from 8–128 B).
type VarSizer struct {
	Min, Max int
}

// Bytes produces one payload derived from a key so regenerating it for
// verification is possible.
func (v VarSizer) Bytes(r *rand.Rand, key uint64) []byte {
	n := v.Min
	if v.Max > v.Min {
		n += r.Intn(v.Max - v.Min + 1)
	}
	b := make([]byte, n)
	x := mix64(key)
	for i := range b {
		if i%8 == 0 {
			x = mix64(x)
		}
		b[i] = byte(x >> (8 * uint(i%8)))
	}
	return b
}
