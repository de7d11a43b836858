package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"dramscope/internal/core"
	"dramscope/internal/expt"
	"dramscope/internal/store"
	"dramscope/internal/trace"
)

// seedsPerCampaign fresh seeds are crossed with every catalog profile:
// 16 members per campaign. The local executor keeps every member's
// suite alive until it returns, so its peak RSS grows with the member
// count (about 4 GB at 48 members); NOTES.md has the measurements.
const seedsPerCampaign = 1

// members returns one campaign's member list: every catalog profile
// crossed with fresh seeds, each run recovering its own Table III row,
// in the order the CLI's glob expansion uses.
func members(b *bench) ([]expt.RunSpec, error) {
	profiles, err := expt.MatchProfiles("all")
	if err != nil {
		return nil, err
	}
	seeds := b.seeds(seedsPerCampaign)
	var specs []expt.RunSpec
	for _, p := range profiles {
		for _, s := range seeds {
			specs = append(specs, expt.RunSpec{Profile: p, Seed: s, Only: []string{"recover"}})
		}
	}
	return specs, nil
}

// checkAggregate checks a campaign aggregate against its member list:
// one clean summary per member, in spec order. failed maps member
// index to the reason already recorded for it; members it adds to
// the map failed here.
func checkAggregate(agg []byte, specs []expt.RunSpec, failed map[int]string) {
	var rep struct {
		Runs []expt.CampaignRunSummary `json:"runs"`
	}
	if err := json.Unmarshal(agg, &rep); err != nil || len(rep.Runs) != len(specs) {
		for i := range specs {
			if _, ok := failed[i]; !ok {
				failed[i] = failf("member %d: aggregate unreadable or has %d of %d runs (%v)", i, len(rep.Runs), len(specs), err)
			}
		}
		return
	}
	for i, s := range rep.Runs {
		if _, ok := failed[i]; ok {
			continue
		}
		switch {
		case s.Profile != specs[i].Profile || s.Seed != specs[i].Seed:
			failed[i] = failf("member %d: aggregate row is %s seed %d, want %s seed %d", i, s.Profile, s.Seed, specs[i].Profile, specs[i].Seed)
		case s.Error != "" || s.Errors > 0:
			failed[i] = failf("member %d %s seed %d: %d failed experiments %s", i, s.Profile, s.Seed, s.Errors, s.Error)
		case s.Recovered < 1:
			failed[i] = failf("member %d %s seed %d: recovered no Table III row", i, s.Profile, s.Seed)
		}
	}
}

// tally turns per-member failures into an op result.
func tally(specs []expt.RunSpec, failed map[int]string, wall time.Duration) opResult {
	r := opResult{runs: len(specs), ok: len(specs) - len(failed), wall: wall}
	idx := make([]int, 0, len(failed))
	for i := range failed {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		r.fails = append(r.fails, failed[i])
	}
	return r
}

// localCampaign runs specs through expt.Campaign.Run, the executor
// behind `experiments -campaign`, and returns the aggregate bytes.
// onRun, when non-nil, sees every member result.
func localCampaign(specs []expt.RunSpec, st *store.Store, root *trace.Span, onRun func(int, int, *expt.CampaignRunResult)) ([]byte, error) {
	c := &expt.Campaign{Specs: specs}
	rep, err := c.Run(expt.CampaignOptions{Jobs: jobs, Store: st, Trace: root, OnRun: onRun})
	if err != nil {
		return nil, err
	}
	return rep.JSON()
}

// localFixture is the campaign-local workload: the fleet workload's
// member list through the in-process campaign executor at jobs 2,
// against one store set-up opened empty.
type localFixture struct {
	b          *bench
	dir        string
	st         *store.Store
	storedRuns int
	// member0 is the first member's report and canonical spec from the
	// latest op: the store-layer payload.
	member0, canon0 []byte
}

func newLocalFixture(b *bench) (fixture, error) {
	dir, err := b.tempDir()
	if err != nil {
		return nil, err
	}
	st, err := store.OpenDir(dir, false)
	if err != nil {
		return nil, err
	}
	return &localFixture{b: b, dir: dir, st: st}, nil
}

func (f *localFixture) op() opResult {
	r, err := f.measure(nil)
	if err != nil {
		r.runs, r.fails = 1, append(r.fails, err.Error())
	}
	return r
}

func (f *localFixture) measure(root *trace.Span) (opResult, error) {
	specs, err := members(f.b)
	if err != nil {
		return opResult{}, err
	}
	failed := make(map[int]string)
	onRun := func(i, _ int, res *expt.CampaignRunResult) {
		// OnRun calls arrive concurrently; only member 0 is kept, and
		// only its own call writes these fields.
		if i == 0 && res.Report != nil {
			f.member0, f.canon0 = res.Report, res.Spec.Canonical()
		}
	}
	start := time.Now()
	agg, err := localCampaign(specs, f.st, root, onRun)
	wall := time.Since(start)
	f.storedRuns += len(specs)
	if err != nil {
		for i := range specs {
			failed[i] = failf("campaign: %v", err)
		}
	} else {
		checkAggregate(agg, specs, failed)
	}
	return tally(specs, failed, wall), nil
}

func (f *localFixture) traced() (opResult, []trace.Record, error) {
	rec := trace.New("")
	root := rec.Root("campaign", "perfbench campaign-local").Begin()
	r, err := f.measure(root)
	root.End()
	return r, rec.Records(), err
}

// crossCheck has nothing to add: the fleet workload's traced run
// checks this executor's aggregate against the served one.
func (f *localFixture) crossCheck() opResult { return opResult{} }

func (f *localFixture) layers(ms *metrics, recs []trace.Record, ps *core.ProbeState) error {
	n, err := dirBytes(f.dir)
	if err != nil {
		return err
	}
	ms.set("store.bytes", float64(n)/float64(max(f.storedRuns, 1)), "B/run")
	if f.member0 == nil {
		return fmt.Errorf("campaign-local: no member report to time the store with")
	}
	return storeLayers(ms, f.b, ps, f.member0, f.canon0)
}

func (f *localFixture) close() {}
