// Package synth provides the deterministic random-number machinery and
// the synthetic trace generators (Synthetic-St, Synthetic-Db) used in
// the paper's evaluation: Zipf(alpha=1) page popularity, Poisson DMA
// transfer arrivals, and Poisson processor accesses.
//
// Generation is per call except for what the process keeps in
// SharedTables: values that depend only on their key. NewZipf shares
// one immutable table per distinct (n, alpha), for at most 8 keys. An
// alpha = 1 table takes 8 bytes per 32 ranks (125 KB for OLTP-St's
// 500,000 objects), any other skew 8 bytes per rank (320 KB for
// OLTP-Db's 40,000), and each carries a 16 KB search guide. The four
// Table 2 traces keep three tables, about 0.5 MB together.
package synth

import (
	"fmt"
	"math"
	"sync"
)

// RNG is a small, fast, deterministic generator (xoshiro256++ seeded by
// splitmix64). The simulator never uses math/rand's global state, so
// identical configurations reproduce bit-identical traces and results.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from a single 64-bit seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 expansion of the seed into four words.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// next returns the next raw 64-bit value.
func (r *RNG) next() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("synth: Intn(%d)", n))
	}
	return int(r.next() % uint64(n)) // modulo bias negligible for n << 2^64
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic(fmt.Sprintf("synth: Exp mean %g", mean))
	}
	u := r.Float64()
	return -math.Log(1-u) * mean
}

// Perm returns a uniformly random permutation of [0,n) using
// Fisher-Yates. Elements are int32, half the memory of int for the
// dataset-sized permutations the generators scatter popularity with;
// n beyond the int32 range panics.
func (r *RNG) Perm(n int) []int32 {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("synth: Perm(%d)", n))
	}
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	// Each swap draws j = Intn(i+1), with Uint64 inlined on the state
	// held in locals: the draws are bit-identical, and the loop runs
	// without storing the state back on every step.
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := n - 1; i > 0; i-- {
		x := rotl(s0+s3, 23) + s0
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		j := x % uint64(i+1)
		p[i], p[j] = p[j], p[i]
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return p
}

// Zipf samples ranks 0..N-1 with probability proportional to
// 1/(rank+1)^alpha, by binary search over the cumulative distribution:
// Sample returns the first rank whose cumulative value is at least a
// uniform draw. A Zipf is immutable after NewZipf, so one table serves
// every trace and goroutine that asks for the same (n, alpha).
//
// The alpha = 1 table is kept compact: the running harmonic sum at the
// start of each block of zipfBlock ranks and the normalizer 1/total.
// Sample binary-searches the block ends and replays at most one block
// with the float operations that built the full table, so every
// cumulative value, and hence every sample, is bit-identical to the
// full table's. Other skews keep the full table: a replay would pay a
// math.Pow per rank.
//
// A guide narrows the search. The draw u falls in one of zipfGuide
// equal buckets, and guide[k] is where the unguided search lands for
// u = k/zipfGuide, the bucket's lower edge. The search is monotone in
// u, so a draw in bucket k lands in [guide[k], guide[k+1]] and the
// search need only cover that span, with the same answer.
type Zipf struct {
	n int
	// cum is the full cumulative table (alpha != 1), nil for alpha = 1.
	cum []float64
	// sums[b] is the running harmonic sum before rank b*zipfBlock, and
	// inv is 1/H(n) (alpha = 1 only).
	sums []float64
	inv  float64
	// guide has zipfGuide + 1 entries: blocks of the compact table or
	// ranks of the full one.
	guide []int32
}

// zipfBlock is the compact table's block size in ranks.
// BenchmarkZipfSample picked it: a block of 32 samples as fast as the
// full table at 131,072 ranks and faster at 500,000; a block of 64 was
// about 15% slower than the full table at 131,072.
const zipfBlock = 32

// zipfGuide is the guide's bucket count. It is a power of two, so that
// u*zipfGuide and k/zipfGuide are exact and a draw's bucket is exactly
// the one whose edges bracket it.
const zipfGuide = 4096

// zipfTables holds one table per distinct (n, alpha), for at most 8
// keys.
var zipfTables = SharedTables[zipfKey, *Zipf]{Max: 8}

type zipfKey struct {
	n     int
	alpha float64
}

// NewZipf returns a sampler over n ranks with skew alpha (the paper's
// synthetic traces use alpha = 1). It panics when n is not positive or
// alpha is negative, NaN or infinite; configs reject those first.
func NewZipf(n int, alpha float64) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("synth: Zipf over %d ranks", n))
	}
	if !ValidSkew(alpha) {
		panic(fmt.Sprintf("synth: Zipf alpha %g", alpha))
	}
	return zipfTables.Get(zipfKey{n, alpha}, func() *Zipf { return newZipf(n, alpha) })
}

// ValidSkew reports whether alpha is a Zipf skew NewZipf accepts:
// finite and non-negative.
func ValidSkew(alpha float64) bool { return alpha >= 0 && !math.IsInf(alpha, 1) }

func newZipf(n int, alpha float64) *Zipf {
	var z *Zipf
	if alpha == 1 {
		sums := make([]float64, (n+zipfBlock-1)/zipfBlock)
		total := 0.0
		for i := 0; i < n; i++ {
			if i%zipfBlock == 0 {
				sums[i/zipfBlock] = total
			}
			total += 1 / float64(i+1)
		}
		z = &Zipf{n: n, sums: sums, inv: 1 / total}
	} else {
		cum := make([]float64, n)
		total := 0.0
		for i := 0; i < n; i++ {
			total += 1 / math.Pow(float64(i+1), alpha)
			cum[i] = total
		}
		inv := 1 / total
		for i := range cum {
			cum[i] *= inv
		}
		cum[n-1] = 1 // guard against rounding
		z = &Zipf{n: n, cum: cum}
	}
	return z.guided()
}

// guided fills z's guide from its table and returns z.
func (z *Zipf) guided() *Zipf {
	z.guide = make([]int32, zipfGuide+1)
	for k := range z.guide {
		z.guide[k] = int32(z.search(0, z.last(), float64(k)/zipfGuide))
	}
	return z
}

// Sample draws a rank. Rank 0 is the most popular.
func (z *Zipf) Sample(r *RNG) int { return z.rank(r.Float64()) }

// rank returns the first rank whose cumulative value is at least u,
// for u in [0, 1).
func (z *Zipf) rank(u float64) int {
	k := int(u * zipfGuide)
	return z.replay(z.search(int(z.guide[k]), int(z.guide[k+1]), u), u)
}

// last is the index of the full table's last rank or the compact
// table's last block, whose end is 1.
func (z *Zipf) last() int {
	if z.cum != nil {
		return z.n - 1
	}
	return len(z.sums) - 1
}

// search returns the first index in [lo, hi] whose end reaches u,
// given that hi's does: a rank's cumulative value in the full table, a
// block's last cumulative value in the compact one.
func (z *Zipf) search(lo, hi int, u float64) int {
	if z.cum != nil {
		for lo < hi {
			mid := (lo + hi) / 2
			if z.cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if z.sums[mid+1]*z.inv < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// replay turns what search found into a rank: in the compact table it
// replays block b up to its last rank, which the search proved reaches
// u; in the full table b is already the rank.
func (z *Zipf) replay(b int, u float64) int {
	if z.cum != nil {
		return b
	}
	i, last := b*zipfBlock, min((b+1)*zipfBlock, z.n)-1
	total := z.sums[b]
	for ; i < last; i++ {
		total += 1 / float64(i+1)
		if total*z.inv >= u {
			return i
		}
	}
	return last
}

// SharedTables holds immutable values that depend only on their key,
// such as the Zipf tables, one per key for the life of the process.
// Each is built once, by the first caller to ask for its key, for at
// most Max keys; past that, Get builds a private value per call. The
// zero value with Max set is ready for use.
type SharedTables[K comparable, V any] struct {
	Max int
	mu  sync.Mutex
	m   map[K]*sharedTable[V]
}

type sharedTable[V any] struct {
	once sync.Once
	v    V
}

// Get returns the value kept for k, calling build to make it if none
// is kept yet.
func (s *SharedTables[K, V]) Get(k K, build func() V) V {
	s.mu.Lock()
	e := s.m[k]
	if e == nil && len(s.m) < s.Max {
		if s.m == nil {
			s.m = map[K]*sharedTable[V]{}
		}
		e = &sharedTable[V]{}
		s.m[k] = e
	}
	s.mu.Unlock()
	if e == nil {
		return build()
	}
	e.once.Do(func() { e.v = build() })
	return e.v
}
