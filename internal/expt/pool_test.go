package expt

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"dramscope/internal/topo"
)

// A released clone's device must come back through the pool, and the
// recycled clone must behave exactly like a first-generation one.
//
// The pool-identity assertions here (and below) skip under the race
// detector: race-mode sync.Pool deliberately drops Put items at
// random, so "Get returns what was Put" does not hold there. The
// behavioral assertions still run; the cross-shard race job covers
// the pool's concurrency surface.
func TestCloneReleaseRecyclesDevice(t *testing.T) {
	parent, err := NewEnv(topo.Small(), 3)
	if err != nil {
		t.Fatal(err)
	}
	first, err := parent.Clone()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := first.Host.ReadRow(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Host.FillRow(0, 10, 0xabcdef); err != nil {
		t.Fatal(err)
	}
	chip := first.Chip
	first.Release()
	if first.Chip != nil || first.Host != nil {
		t.Fatal("Release must sever the clone from its device")
	}

	second, err := parent.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if !raceEnabled && second.Chip != chip {
		t.Fatal("second clone should recycle the released device")
	}
	if second.Chip.Now() != 0 {
		t.Fatalf("recycled device starts at %v, want power-on time 0", second.Chip.Now())
	}
	got, err := second.Host.ReadRow(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("col %d: recycled clone read %#x, pristine clone %#x", i, got[i], ref[i])
		}
	}
}

// Releasing a root Env is a no-op: only clones recycle.
func TestReleaseRootIsNoop(t *testing.T) {
	root, err := NewEnv(topo.Small(), 3)
	if err != nil {
		t.Fatal(err)
	}
	root.Release()
	if root.Chip == nil || root.Host == nil {
		t.Fatal("Release must not tear down a root Env")
	}
}

// A clone of a clone must recycle through the shared root pool, so
// chains of clones still reuse one device.
func TestCloneOfCloneSharesRootPool(t *testing.T) {
	root, err := NewEnv(topo.Small(), 3)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := root.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := c1.Clone()
	if err != nil {
		t.Fatal(err)
	}
	dev := c2.Chip
	c2.Release()
	c3, err := root.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if !raceEnabled && c3.Chip != dev {
		t.Fatal("grandchild's released device must be visible to the root's next clone")
	}
	if c3.Chip == nil || c3.Chip.Now() != 0 {
		t.Fatal("root's next clone must be a pristine device")
	}
}

// The pooled clone path must not rebuild device state: a Clone/Release
// cycle on a warm pool stays within a handful of small allocations
// (the Env and Host shells), never a bank's worth of arrays.
func TestPooledCloneAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items at random; allocation counts are meaningless")
	}
	parent, err := NewEnv(topo.Small(), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the pool so the measured cycles always hit it.
	warm, err := parent.Clone()
	if err != nil {
		t.Fatal(err)
	}
	warm.Release()

	allocs := testing.AllocsPerRun(50, func() {
		c, err := parent.Clone()
		if err != nil {
			t.Fatal(err)
		}
		c.Release()
	})
	if allocs > 16 {
		t.Fatalf("pooled Clone/Release allocates %.0f objects per cycle; the device is being rebuilt", allocs)
	}
}

// BenchmarkEnvClone measures the pooled clone/release round trip the
// suite runner performs once per job: with the pool warm it should be
// a Reset (a few memclears) plus pool bookkeeping, not a device build.
func BenchmarkEnvClone(b *testing.B) {
	parent, err := NewEnv(topo.Small(), 3)
	if err != nil {
		b.Fatal(err)
	}
	warm, err := parent.Clone()
	if err != nil {
		b.Fatal(err)
	}
	warm.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := parent.Clone()
		if err != nil {
			b.Fatal(err)
		}
		c.Release()
	}
}

// A run canceled mid-flight is released like a finished one: Run has
// waited for every node, so Release races with nothing (the race lane
// runs this), and the out-of-band cost figures survive it.
func TestSuiteReleaseAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewSuite(5)
	s.RegisterProfile(topo.Small())
	dev := topo.Small().Name
	for i := 0; i < 6; i++ {
		i := i
		err := s.Register(Experiment{
			Name: fmt.Sprintf("m%d", i), Title: "measure",
			Needs: Needs{Device: dev, Probe: ProbeSubarrays},
			Run: func(j *Job) error {
				if i == 2 {
					cancel()
				}
				return j.Env().Host.FillRow(0, 10+i, 0xabcdef)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(Options{Context: ctx, Spec: RunSpec{Jobs: 2}}); err != nil {
		t.Fatal(err)
	}
	if ctx.Err() == nil {
		t.Fatal("the run was not canceled")
	}
	cost, used := s.ProbeCost(), s.ActivationsUsed()
	if cost.ACT == 0 || used == 0 {
		t.Fatalf("probe cost %+v, activations %d: the run did no device work", cost, used)
	}
	s.Release()
	if got := s.ProbeCost(); got != cost {
		t.Errorf("ProbeCost after Release = %+v, want %+v", got, cost)
	}
	if got := s.ActivationsUsed(); got != used {
		t.Errorf("ActivationsUsed after Release = %d, want %d", got, used)
	}

	// A suite built from the released memory reports what a suite built
	// from fresh memory does.
	want := runSmall(t, 9, 2, nil)
	again := smallSuite(t, 9, nil)
	rep, err := again.Run(Options{Spec: RunSpec{Jobs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	again.Release()
	a, _ := want.JSON()
	b, _ := rep.JSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("suite after Release reported\n%s\nwant\n%s", b, a)
	}
}
