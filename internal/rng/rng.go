// Package rng provides deterministic, stateless pseudo-randomness for
// the DRAM fault models.
//
// Every per-cell quantity in the simulator (RowHammer threshold,
// RowPress threshold, retention time) is a pure function of a seed and
// the cell's coordinates. This keeps experiments exactly reproducible,
// lets fault state be recomputed lazily instead of stored, and makes
// two devices built from the same profile and seed bit-identical.
package rng

import "math"

// splitmix64 is the finalizer from the SplitMix64 generator
// (Steele et al., "Fast Splittable Pseudorandom Number Generators").
// It is a strong 64-bit mixer: every input bit affects every output
// bit, which is what we need to decorrelate neighboring cells.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash mixes an arbitrary number of 64-bit words into a single
// well-distributed 64-bit value. Hash is pure: the same inputs always
// produce the same output.
func Hash(words ...uint64) uint64 {
	h := uint64(0x51a2c5fbcd9d9d1d)
	for _, w := range words {
		h = splitmix64(h ^ w)
	}
	return splitmix64(h)
}

// Split derives an independent child seed from a base seed and a
// label. Experiment harnesses use it to hand every experiment (and
// every device) its own stream: the children of one base seed are
// decorrelated from each other and from the base, so concurrent
// experiments never share generator state and a run's results do not
// depend on execution order.
func Split(seed uint64, label string) uint64 {
	words := make([]uint64, 0, (len(label)+7)/8+2)
	words = append(words, seed, uint64(len(label)))
	var w uint64
	var n uint
	for i := 0; i < len(label); i++ {
		w |= uint64(label[i]) << (8 * n)
		n++
		if n == 8 {
			words = append(words, w)
			w, n = 0, 0
		}
	}
	if n > 0 {
		words = append(words, w)
	}
	return Hash(words...)
}

// SplitN derives the i-th child seed of (seed, label) — the indexed
// form of Split used by the shard layer: shard unit i of an experiment
// draws from SplitN(experimentSeed, "unit", i). Children of one
// (seed, label) pair are decorrelated from each other, from the
// labeled Split child, and from the base seed, so concurrently
// executing shards never share generator state and a partitioned
// result cannot depend on how units were grouped into shards.
func SplitN(seed uint64, label string, i int) uint64 {
	return Hash(Split(seed, label), uint64(i))
}

// Uniform returns a deterministic draw in the half-open interval
// (0, 1], derived from the given words. The interval excludes zero so
// the draw can be used directly as a Pareto-style threshold scale
// without a divide-by-zero guard.
func Uniform(words ...uint64) float64 {
	h := Hash(words...)
	// 53 bits of mantissa; +1 shifts the range from [0,1) to (0,1].
	return float64(h>>11+1) / float64(1<<53)
}

// LogUniform returns a deterministic draw from a log-uniform
// distribution over [lo, hi]. It is used for retention times, which
// span several orders of magnitude across cells in real DRAM.
func LogUniform(lo, hi float64, words ...uint64) float64 {
	// Negated comparisons so NaN bounds fail too.
	if !(lo > 0) || !(hi >= lo) || hi > math.MaxFloat64 {
		panic("rng: LogUniform requires finite 0 < lo <= hi")
	}
	u := Uniform(words...)
	// exp(log lo + u*(log hi - log lo)) as lo * (hi/lo)^u, through
	// the local powf.
	return lo * powf(hi/lo, u)
}

// powf computes base**exp for base > 0 using the standard
// exp(exp*ln(base)) decomposition. Implemented locally: the fault
// draws, and with them every report byte, are defined by these
// approximations, not by the math package's.
func powf(base, exp float64) float64 {
	return expf(exp * lnf(base))
}

// lnf is a natural-log approximation accurate to ~1e-12 over the range
// used by the fault models (1e-6 .. 1e12). It reduces the argument to
// [1, 2) via exponent extraction and evaluates atanh-based series.
// It fails closed on NaN and +Inf, which the halving loop below would
// never reduce.
func lnf(x float64) float64 {
	if !(x > 0) || x > math.MaxFloat64 {
		panic("rng: lnf domain")
	}
	// Scale x into [1,2) by powers of two, counting the exponent.
	k := 0
	for x >= 2 {
		x /= 2
		k++
	}
	for x < 1 {
		x *= 2
		k--
	}
	// ln(x) = 2*atanh((x-1)/(x+1)); series converges fast on [1,2).
	t := (x - 1) / (x + 1)
	t2 := t * t
	sum := 0.0
	term := t
	for i := 1; i < 40; i += 2 {
		sum += term / float64(i)
		term *= t2
	}
	const ln2 = 0.6931471805599453
	return 2*sum + float64(k)*ln2
}

// expf is an exponential approximation matching lnf's accuracy. It
// fails closed on NaN and ±Inf, and saturates beyond |x| > 1000, where
// the 2^k scaling below over- or underflows anyway (|k| > 1400) but
// would loop k times — forever once k no longer fits an int.
func expf(x float64) float64 {
	switch {
	case x != x || math.IsInf(x, 0):
		panic("rng: expf domain")
	case x > 1000:
		return math.Inf(1)
	case x < -1000:
		return 0
	}
	const ln2 = 0.6931471805599453
	// Range-reduce: x = k*ln2 + r with |r| <= ln2/2.
	k := int(x/ln2 + 0.5)
	if x < 0 {
		k = int(x/ln2 - 0.5)
	}
	r := x - float64(k)*ln2
	// Taylor series for exp(r), |r| small.
	sum := 1.0
	term := 1.0
	for i := 1; i < 20; i++ {
		term *= r / float64(i)
		sum += term
	}
	// Scale by 2^k.
	for k > 0 {
		sum *= 2
		k--
	}
	for k < 0 {
		sum /= 2
		k++
	}
	return sum
}
