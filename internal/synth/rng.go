// Package synth provides the deterministic random-number machinery and
// the synthetic trace generators (Synthetic-St, Synthetic-Db) used in
// the paper's evaluation: Zipf(alpha=1) page popularity, Poisson DMA
// transfer arrivals, and Poisson processor accesses.
package synth

import (
	"fmt"
	"math"
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

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
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
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("synth: Intn(%d)", n))
	}
	return int(r.Uint64() % uint64(n)) // modulo bias negligible for n << 2^64
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
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf samples ranks 0..N-1 with probability proportional to
// 1/(rank+1)^alpha. It precomputes the cumulative distribution and
// samples by binary search, which is exact and fast for the page
// populations used here (~10^5).
type Zipf struct {
	cum []float64
}

// NewZipf builds a sampler over n ranks with skew alpha (the paper's
// synthetic traces use alpha = 1).
func NewZipf(n int, alpha float64) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("synth: Zipf over %d ranks", n))
	}
	if alpha < 0 {
		panic(fmt.Sprintf("synth: Zipf alpha %g", alpha))
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		x := float64(i + 1)
		if alpha != 1 { // math.Pow(x, 1) is x: skipping the call keeps the bits
			x = math.Pow(x, alpha)
		}
		total += 1 / x
		cum[i] = total
	}
	inv := 1 / total
	for i := range cum {
		cum[i] *= inv
	}
	cum[n-1] = 1 // guard against rounding
	return &Zipf{cum: cum}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cum) }

// Sample draws a rank. Rank 0 is the most popular.
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cum)-1
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

// Prob returns the probability mass of a rank.
func (z *Zipf) Prob(rank int) float64 {
	if rank == 0 {
		return z.cum[0]
	}
	return z.cum[rank] - z.cum[rank-1]
}
