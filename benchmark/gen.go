package main

import (
	"math"
	"math/rand/v2"
)

// Keys and values must lie in [1, 2^62): zero is the tree's probe
// sentinel / tombstone and the top two bits are tag bits.
const wordMask = 1<<62 - 1

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyPerm is a seed-keyed bijection of the nonzero 62-bit words: the
// key of rank i is a different, uniformly scattered word under every
// seed, and distinct ranks never collide. internal/workload cannot
// supply this — its generators scramble with a fixed mix, so the seed
// would change the op order but never the key set.
type keyPerm struct{ xor, mul uint64 }

func newKeyPerm(seed int64) keyPerm {
	s := mix64(uint64(seed) ^ 0x9e3779b97f4a7c15)
	return keyPerm{xor: s & wordMask, mul: mix64(s) | 1}
}

// raw is a bijection of [0, 2^62): every step (xor with a constant,
// multiplication by an odd number mod 2^62, xor with a right shift)
// is invertible on 62-bit words.
func (p keyPerm) raw(i uint64) uint64 {
	x := (i ^ p.xor) & wordMask
	x = (x * p.mul) & wordMask
	x ^= x >> 31
	x = (x * 0xbf58476d1ce4e5b9) & wordMask
	x ^= x >> 29
	return x
}

// key maps rank i ≥ 1 to its key. The one rank that raw sends to zero
// takes raw(0) instead, which no rank ≥ 1 can produce.
func (p keyPerm) key(i uint64) uint64 {
	if x := p.raw(i); x != 0 {
		return x
	}
	return p.raw(0)
}

// valueOf derives the value a key holds at a given version, so every
// read can be checked without a table of expected values.
func valueOf(key uint64, ver uint32) uint64 {
	return mix64(key+uint64(ver)*0x9e3779b97f4a7c15)&wordMask | 1
}

// zipf draws ranks in [1, n] with the YCSB (Gray et al.) Zipfian
// generator. It returns the rank itself — callers own the rank→key
// mapping — which is why internal/workload's Zipf (rank already
// scrambled into a key) is not reused.
type zipf struct {
	n                 uint64
	alpha, zetan, eta float64
	cumulativeRankTwo float64 // u·zetan below this draws rank ≤ 2
}

func newZipf(n uint64, theta float64) *zipf {
	zeta := func(n uint64) float64 {
		sum := 0.0
		for i := uint64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	z := &zipf{n: n, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.cumulativeRankTwo = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) rank(r *rand.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 1
	case uz < z.cumulativeRankTwo:
		return 2
	}
	rank := 1 + uint64(float64(z.n)*math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank > z.n {
		rank = z.n
	}
	return rank
}

// newRand returns the deterministic source for one generator of one
// seed; stream separates the generators of a run (one per session or
// client) so they do not replay each other's draws.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opScan
)

// op is one generated operation. ver is the version the key's value
// carries: the one a put writes, or the one a get or scan must read.
type op struct {
	key  uint64
	ver  uint32
	kind opKind
}

const (
	zipfTheta = 0.99
	scanLen   = 100
)

// distinctPuts is the ingest stream: ranks 1..n in order, which under
// keyPerm is n distinct keys with no locality at all.
func distinctPuts(p keyPerm, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{key: p.key(uint64(i) + 1), ver: 1, kind: opPut}
	}
	return ops
}

// lookupOps is the read-only stream over n preloaded ranks: 95% get,
// 5% scan of scanLen, Zipfian.
func lookupOps(p keyPerm, seed int64, n, count int) []op {
	z := newZipf(uint64(n), zipfTheta)
	r := newRand(seed, 1)
	ops := make([]op, count)
	for i := range ops {
		kind := opGet
		if r.Float64() < 0.05 {
			kind = opScan
		}
		ops[i] = op{key: p.key(z.rank(r)), ver: 1, kind: kind}
	}
	return ops
}

// mixedOps builds one stream per session over n preloaded ranks: 50%
// update, 50% get, Zipfian. Session j draws only ranks ≡ j (mod
// sessions), so no two sessions write the same key and the version
// each get must observe is known when the stream is generated. final
// is the read-back oracle: every preloaded key at its last version.
func mixedOps(p keyPerm, seed int64, n, sessions, countPerSession int) (streams [][]op, final []op) {
	own := n / sessions
	z := newZipf(uint64(own), zipfTheta)
	streams = make([][]op, sessions)
	for j := range streams {
		r := newRand(seed, 2+uint64(j))
		vers := make([]uint32, own)
		ops := make([]op, countPerSession)
		for i := range ops {
			zr := z.rank(r) - 1
			key := p.key(zr*uint64(sessions) + uint64(j) + 1)
			if r.Float64() < 0.5 {
				vers[zr]++
				ops[i] = op{key: key, ver: 1 + vers[zr], kind: opPut}
			} else {
				ops[i] = op{key: key, ver: 1 + vers[zr], kind: opGet}
			}
		}
		streams[j] = ops
		for zr, v := range vers {
			final = append(final, op{key: p.key(uint64(zr*sessions+j) + 1), ver: 1 + v, kind: opGet})
		}
	}
	for rank := own*sessions + 1; rank <= n; rank++ { // preloaded but unowned when sessions ∤ n
		final = append(final, op{key: p.key(uint64(rank)), ver: 1, kind: opGet})
	}
	return streams, final
}

// servedOps builds one stream per client: 80% put of the client's next
// sequential key (clustered: consecutive words, so neighbours share
// leaves), 20% get of a key the same client put earlier. Each client's
// run of keys starts at a seed-derived base with 2^24 words of room.
func servedOps(p keyPerm, seed int64, clients, countPerClient int) (streams [][]op, final []op) {
	streams = make([][]op, clients)
	for c := range streams {
		base := p.key(uint64(c)+1) >> 1 &^ (1<<24 - 1)
		r := newRand(seed, 16+uint64(c))
		ops := make([]op, countPerClient)
		written := uint64(0)
		for i := range ops {
			if written == 0 || r.Float64() < 0.8 {
				written++
				ops[i] = op{key: base + written, ver: 1, kind: opPut}
				final = append(final, op{key: base + written, ver: 1, kind: opGet})
			} else {
				ops[i] = op{key: base + 1 + r.Uint64N(written), ver: 1, kind: opGet}
			}
		}
		streams[c] = ops
	}
	return streams, final
}
