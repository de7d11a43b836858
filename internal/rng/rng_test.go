package rng

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestHashDeterministic(t *testing.T) {
	if Hash(1, 2, 3) != Hash(1, 2, 3) {
		t.Fatal("Hash is not deterministic")
	}
}

func TestHashDistinguishesInputs(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		h := Hash(i)
		if seen[h] {
			t.Fatalf("collision at %d", i)
		}
		seen[h] = true
	}
}

func TestHashOrderSensitive(t *testing.T) {
	if Hash(1, 2) == Hash(2, 1) {
		t.Fatal("Hash should be order-sensitive")
	}
}

func TestSplitDeterministicAndLabelSensitive(t *testing.T) {
	if Split(7, "expt:fig10") != Split(7, "expt:fig10") {
		t.Fatal("Split is not deterministic")
	}
	seen := map[uint64]string{}
	for _, label := range []string{
		"", "a", "b", "ab", "ba", "expt:fig10", "expt:fig12",
		"env:MfrA-DDR4-x4-2021", "a-very-long-label-spanning-multiple-words",
	} {
		h := Split(7, label)
		if prev, dup := seen[h]; dup {
			t.Fatalf("Split collision: %q and %q", prev, label)
		}
		seen[h] = label
		if h == Split(8, label) {
			t.Fatalf("Split(%q) ignores the seed", label)
		}
		if h == 7 {
			t.Fatalf("Split(%q) returned the base seed", label)
		}
	}
}

func TestSplitNoLengthExtensionAliasing(t *testing.T) {
	// Labels that agree on a prefix but differ in length must not
	// collide via zero-padding of the final partial word.
	if Split(1, "abc") == Split(1, "abc\x00") {
		t.Fatal("trailing NUL aliases")
	}
	if Split(1, "12345678") == Split(1, "123456780") {
		t.Fatal("word-boundary aliasing")
	}
}

// TestSplitNStreamsDisjoint is the shard-seed property test: streams
// drawn from sibling SplitN seeds are pairwise non-overlapping over
// 10k draws each, and none of them collides with the parent stream.
// Overlap would mean two shards of one experiment could observe
// correlated randomness, making a partitioned result depend on how
// units were grouped.
func TestSplitNStreamsDisjoint(t *testing.T) {
	const (
		shards = 8
		draws  = 10_000
	)
	seen := make(map[uint64]int, (shards+1)*draws) // value -> stream id
	stream := func(id int, seed uint64) {
		t.Helper()
		for i := uint64(0); i < draws; i++ {
			v := Hash(seed, i)
			if prev, dup := seen[v]; dup {
				t.Fatalf("streams %d and %d overlap at draw %d", prev, id, i)
			}
			seen[v] = id
		}
	}
	stream(0, 7) // the parent seed's own stream
	for s := 0; s < shards; s++ {
		stream(s+1, SplitN(7, "unit", s))
	}
}

// TestSplitNDistinctFromSplit checks the indexed children do not alias
// the labeled child or each other across nearby indices and seeds.
func TestSplitNDistinctFromSplit(t *testing.T) {
	seen := map[uint64]string{}
	record := func(desc string, v uint64) {
		t.Helper()
		if prev, dup := seen[v]; dup {
			t.Fatalf("seed collision: %s and %s", prev, desc)
		}
		seen[v] = desc
	}
	for seed := uint64(1); seed <= 3; seed++ {
		record(fmt.Sprintf("Split(%d,unit)", seed), Split(seed, "unit"))
		for i := 0; i < 64; i++ {
			record(fmt.Sprintf("SplitN(%d,unit,%d)", seed, i), SplitN(seed, "unit", i))
		}
	}
}

// TestSplitNFixedVectors pins the derivation to exact values: the
// shard layer's determinism contract promises byte-identical reports
// across machines and Go versions, which requires the seed arithmetic
// itself to be pure integer math with no platform dependence. If this
// test fails, every committed golden fixture is invalid.
func TestSplitNFixedVectors(t *testing.T) {
	vectors := []struct {
		seed  uint64
		label string
		i     int
		want  uint64
	}{
		{7, "unit", 0, 0xe51a123e7756586b},
		{7, "unit", 1, 0x6a52fe93c6ebfc6b},
		{7, "unit", 255, 0x74decfd590e9b0f5},
		{0, "", 0, 0xe50d55842db11d8a},
		{0xdeadbeef, "bank", 3, 0x106acc26b11ea87d},
	}
	for _, v := range vectors {
		if got := SplitN(v.seed, v.label, v.i); got != v.want {
			t.Errorf("SplitN(%#x, %q, %d) = %#x, want %#x", v.seed, v.label, v.i, got, v.want)
		}
	}
}

func TestUniformRange(t *testing.T) {
	for i := uint64(0); i < 100000; i++ {
		u := Uniform(i, 42)
		if u <= 0 || u > 1 {
			t.Fatalf("Uniform(%d) = %v out of (0,1]", i, u)
		}
	}
}

func TestUniformMean(t *testing.T) {
	const n = 200000
	sum := 0.0
	for i := uint64(0); i < n; i++ {
		sum += Uniform(i, 7)
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("Uniform mean = %v, want ~0.5", mean)
	}
}

func TestUniformQuickProperties(t *testing.T) {
	f := func(a, b uint64) bool {
		u := Uniform(a, b)
		return u > 0 && u <= 1 && u == Uniform(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogUniformRange(t *testing.T) {
	lo, hi := 1e-3, 1e9
	for i := uint64(0); i < 20000; i++ {
		v := LogUniform(lo, hi, i)
		if v < lo*0.999 || v > hi*1.001 {
			t.Fatalf("LogUniform out of range: %v", v)
		}
	}
}

func TestLogUniformDegenerate(t *testing.T) {
	if v := LogUniform(5, 5, 1); math.Abs(v-5) > 1e-9 {
		t.Fatalf("LogUniform(5,5) = %v, want 5", v)
	}
}

func TestLogUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on bad domain")
		}
	}()
	LogUniform(-1, 1, 0)
}

// Non-finite bounds once hung LogUniform (lnf halved +Inf forever);
// every one must now fail closed, promptly.
func TestLogUniformNonFiniteReturns(t *testing.T) {
	for _, b := range [][2]float64{
		{1, math.Inf(1)}, {1, math.NaN()}, {math.NaN(), 2}, {math.Inf(1), math.Inf(1)},
	} {
		done := make(chan interface{}, 1)
		go func() {
			defer func() { done <- recover() }()
			LogUniform(b[0], b[1], 7)
		}()
		select {
		case p := <-done:
			if p == nil {
				t.Errorf("LogUniform(%v, %v) returned a value, want a domain panic", b[0], b[1])
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("LogUniform(%v, %v) did not return", b[0], b[1])
		}
	}
}

// lnf and expf fail closed on non-finite input, and expf saturates on
// huge finite input exactly where its scaling loop over- or
// underflowed before.
func TestLnfExpfNonFinite(t *testing.T) {
	for _, f := range []func(){
		func() { lnf(math.Inf(1)) },
		func() { lnf(math.NaN()) },
		func() { expf(math.Inf(1)) },
		func() { expf(math.Inf(-1)) },
		func() { expf(math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want a domain panic on non-finite input")
				}
			}()
			f()
		}()
	}
	for _, x := range []float64{710, 1000.5, 1e18, math.MaxFloat64} {
		if got := expf(x); !math.IsInf(got, 1) {
			t.Errorf("expf(%v) = %v, want +Inf", x, got)
		}
	}
	for _, x := range []float64{-750, -1000.5, -1e18, -math.MaxFloat64} {
		if got := expf(x); got != 0 {
			t.Errorf("expf(%v) = %v, want 0", x, got)
		}
	}
}

func TestLnfAgainstMath(t *testing.T) {
	for _, x := range []float64{1e-6, 0.5, 1, 1.5, 2, 10, 1e3, 1e9, 1e12} {
		got := lnf(x)
		want := math.Log(x)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("lnf(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestExpfAgainstMath(t *testing.T) {
	for _, x := range []float64{-20, -1, -0.1, 0, 0.1, 1, 5, 20} {
		got := expf(x)
		want := math.Exp(x)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("expf(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestPowfQuick(t *testing.T) {
	f := func(b8, e8 uint8) bool {
		base := 0.5 + float64(b8)/32 // 0.5 .. ~8.5
		exp := float64(e8)/128 - 1   // -1 .. ~1
		got := powf(base, exp)
		want := math.Pow(base, exp)
		return math.Abs(got-want) <= 1e-8*(1+want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
