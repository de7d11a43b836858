package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"dramscope/internal/core"
	"dramscope/internal/expt"
	"dramscope/internal/host"
	"dramscope/internal/store"
	"dramscope/internal/trace"
)

// goldenReport is the committed full-suite report at
// (expt.DefaultFigProfile, expt.DefaultSeed), relative to the
// repository root the benchmark runs from.
const goldenReport = "internal/expt/testdata/suite_report.json"

// suiteFixture runs the full default suite on expt.DefaultFigProfile
// at jobs 2. Cold: every op gets a fresh empty store, so it pays the
// whole probe chain and writes every artifact. Warm: set-up populates
// one store, and every op must read its probe chains from it and
// issue zero probe commands.
type suiteFixture struct {
	b     *bench
	warm  bool
	spec  expt.RunSpec
	store *store.Store // warm only: the store set-up populated
	ref   []byte       // the set-up report every op must equal
	canon []byte       // the spec's canonical form (store report key)
	// lastStoreBytes is the size of the store the last cold op wrote,
	// or of the populated warm store.
	lastStoreBytes int64
}

func newSuiteFixture(b *bench, warm bool) (*suiteFixture, error) {
	f := &suiteFixture{b: b, warm: warm, spec: expt.RunSpec{
		Profile: expt.DefaultFigProfile,
		Seed:    expt.DefaultSeed + b.seed,
		Jobs:    jobs,
	}}
	s, err := expt.DefaultSuite(f.spec.Profile, f.spec.Seed)
	if err != nil {
		return nil, err
	}
	rs, err := s.Resolve(f.spec)
	if err != nil {
		return nil, err
	}
	f.canon = rs.Canonical()
	if !warm {
		return f, nil
	}
	dir, err := b.tempDir()
	if err != nil {
		return nil, err
	}
	if f.store, err = store.OpenDir(dir, false); err != nil {
		return nil, err
	}
	rep, _, err := f.runSuite(f.store, nil)
	if err != nil {
		return nil, fmt.Errorf("populate store: %w", err)
	}
	if err := f.setRef(rep); err != nil {
		return nil, err
	}
	f.lastStoreBytes, err = dirBytes(dir)
	return f, err
}

// setRef adopts the set-up report as the reference, after checking it
// against the committed golden report when the spec is the golden one.
func (f *suiteFixture) setRef(rep []byte) error {
	if f.spec.Seed == expt.DefaultSeed {
		if err := checkGolden(rep); err != nil {
			return err
		}
	}
	f.ref = rep
	return nil
}

func checkGolden(rep []byte) error {
	want, err := os.ReadFile(goldenReport)
	if err != nil {
		return fmt.Errorf("read golden report: %w", err)
	}
	if !bytes.Equal(rep, want) {
		return fmt.Errorf("suite report differs from %s", goldenReport)
	}
	return nil
}

// runSuite runs the spec once and returns the report bytes and the
// probe-chain command bill.
func (f *suiteFixture) runSuite(st *store.Store, root *trace.Span) ([]byte, host.Counters, error) {
	s, err := expt.DefaultSuite(f.spec.Profile, f.spec.Seed)
	if err != nil {
		return nil, host.Counters{}, err
	}
	rep, err := s.Run(expt.Options{Spec: f.spec, Store: st, Trace: root})
	if err != nil {
		return nil, host.Counters{}, err
	}
	if err := rep.Err(); err != nil {
		return nil, host.Counters{}, err
	}
	data, err := rep.JSON()
	return data, s.ProbeCost(), err
}

func (f *suiteFixture) op() opResult {
	r, err := f.measure(nil)
	if err != nil {
		r.runs, r.fails = 1, append(r.fails, err.Error())
	}
	return r
}

// measure runs one op, optionally under a trace root, and checks it.
func (f *suiteFixture) measure(root *trace.Span) (opResult, error) {
	st := f.store
	var dir string
	if !f.warm {
		var err error
		if dir, err = f.b.tempDir(); err != nil {
			return opResult{}, err
		}
		defer os.RemoveAll(dir)
		if st, err = store.OpenDir(dir, false); err != nil {
			return opResult{}, err
		}
	}
	start := time.Now()
	rep, probe, err := f.runSuite(st, root)
	r := opResult{runs: 1, wall: time.Since(start)}
	switch {
	case err != nil:
		r.fails = append(r.fails, failf("suite %s seed %d: %v", f.spec.Profile, f.spec.Seed, err))
	case f.warm && probe != (host.Counters{}):
		r.fails = append(r.fails, failf("warm suite issued probe commands: %v", probe))
	case f.ref == nil:
		if err := f.setRef(rep); err != nil {
			r.fails = append(r.fails, err.Error())
		} else {
			r.ok = 1
		}
	case !bytes.Equal(rep, f.ref):
		r.fails = append(r.fails, failf("suite report differs from the set-up report (%d vs %d bytes)", len(rep), len(f.ref)))
	default:
		r.ok = 1
	}
	if dir != "" && root != nil {
		var serr error
		if f.lastStoreBytes, serr = dirBytes(dir); serr != nil {
			return r, serr
		}
	}
	return r, nil
}

func (f *suiteFixture) traced() (opResult, []trace.Record, error) {
	rec := trace.New(trace.DeriveID("perfbench", f.b.workload, fmt.Sprint(f.b.seed)))
	root := rec.Root("run", "perfbench "+f.b.workload).Begin()
	r, err := f.measure(root)
	root.End()
	return r, rec.Records(), err
}

// crossCheck runs the golden spec once and compares it with the
// committed report, unless set-up already did (the workload seed is
// the golden one).
func (f *suiteFixture) crossCheck() opResult {
	if f.spec.Seed == expt.DefaultSeed {
		return opResult{}
	}
	g := &suiteFixture{b: f.b, spec: expt.RunSpec{Profile: expt.DefaultFigProfile, Seed: expt.DefaultSeed, Jobs: jobs}}
	rep, _, err := g.runSuite(nil, nil)
	if err == nil {
		err = checkGolden(rep)
	}
	if err != nil {
		return opResult{runs: 1, fails: []string{err.Error()}}
	}
	return opResult{runs: 1, ok: 1}
}

func (f *suiteFixture) layers(ms *metrics, recs []trace.Record, ps *core.ProbeState) error {
	ms.set("store.bytes", float64(f.lastStoreBytes), "B/run")
	return storeLayers(ms, f.b, ps, f.ref, f.canon)
}

func (f *suiteFixture) close() {}
