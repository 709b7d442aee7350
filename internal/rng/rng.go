// Package rng provides a small, fast, deterministic pseudo-random number
// generator for the BlitzCoin simulators.
//
// All Monte Carlo experiments in the paper (Figs. 3-8) average over many runs
// with random initializations. To make every experiment reproducible
// bit-for-bit, simulation components never use math/rand's global state;
// they take an explicit *rng.Source seeded from the experiment seed. Derived
// streams (one per tile, one per trial) are split off with Split so that
// changing the number of draws in one component does not perturb another.
//
// The generator is xoshiro256**, seeded through splitmix64, following the
// reference implementations by Blackman and Vigna. It is not cryptographic.
package rng

import "math"

// Source is a deterministic xoshiro256** PRNG. The zero value is invalid;
// use New.
type Source struct {
	s [4]uint64
}

// splitmix64 advances a 64-bit state and returns the next output. It is used
// both to expand seeds into full xoshiro state and to derive child seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Two Sources created with the same
// seed produce identical streams.
func New(seed uint64) *Source {
	var r Source
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state; splitmix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives an independent child Source. The child's stream is a
// deterministic function of the parent's state at the time of the call, and
// the parent advances by one draw, so repeated Splits yield distinct
// children.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation.
	v := r.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-n) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Int63n returns a uniformly random int64 in [0, n). It panics if n <= 0.
func (r *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with n <= 0")
	}
	return int64(r.Uint64() % uint64(n)) // small bias acceptable off hot path
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the polar Box-Muller method.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Shuffle randomizes the order of n elements using swap, as in
// math/rand.Shuffle.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Bool returns a fair random boolean.
func (r *Source) Bool() bool { return r.Uint64()&1 == 1 }
