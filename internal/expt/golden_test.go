package expt

import (
	"bytes"
	"os"
	"strings"
	"sync/atomic"
	"testing"
)

// GoldenCampaign is the committed campaign fixture's definition — one
// representative device per vendor, crossed with two seeds, each run
// recovering its own device's Table III row. The Makefile's `make
// golden` regenerates internal/expt/testdata/campaign_report.json from
// exactly this population via the CLI, and CI's campaign job replays
// it cold and warm.
func GoldenCampaign() *Campaign {
	profiles := []string{"MfrA-DDR4-x4-2016", "MfrB-DDR4-x4-2019", "MfrC-DDR4-x8-2016"}
	seeds := []uint64{5, 7}
	c := &Campaign{}
	for _, prof := range profiles {
		for _, seed := range seeds {
			c.Specs = append(c.Specs, RunSpec{Profile: prof, Seed: seed, Only: []string{"recover"}})
		}
	}
	return c
}

// TestGoldenCampaignReport locks the campaign aggregate to its
// committed fixture, cold and warm: a store-backed campaign over the
// golden population must reproduce the fixture byte for byte, and the
// warm rerun must be all store hits — zero probe commands — with the
// same bytes. Regenerate deliberately with `make golden`.
func TestGoldenCampaignReport(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("six catalog-device recoveries (~1 min)")
	}
	if raceEnabled {
		t.Skip("catalog probes under -race exceed the CI budget; TestCampaignWarmStore covers the store path")
	}
	want, err := os.ReadFile("testdata/campaign_report.json")
	if err != nil {
		t.Fatalf("missing fixture (run `make golden`): %v", err)
	}
	st := openStore(t)

	cold, err := GoldenCampaign().Run(CampaignOptions{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Err(); err != nil {
		t.Fatal(err)
	}
	coldJSON, err := cold.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON, want) {
		t.Fatalf("cold campaign aggregate diverges from testdata/campaign_report.json; "+
			"regenerate with `make golden` if intentional.\ngot: %s", coldJSON)
	}

	var probes atomic.Int64
	warm, err := GoldenCampaign().Run(CampaignOptions{Store: st, OnRun: func(index, total int, res *CampaignRunResult) {
		if !res.Cached {
			t.Errorf("warm campaign run %d executed instead of hitting the store", index)
		}
		probes.Add(res.ProbeCost.Total())
	}})
	if err != nil {
		t.Fatal(err)
	}
	if n := probes.Load(); n != 0 {
		t.Fatalf("warm campaign issued %d probe commands", n)
	}
	warmJSON, err := warm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warmJSON, want) {
		t.Fatal("warm campaign aggregate diverges from the fixture")
	}
}

// TestGoldenSuiteReport locks the full suite report to a committed
// fixture: the JSON report of every experiment at the default profile
// and seed must not change by a byte. Any refactor of the scheduler,
// the shard layer, the probes, or the fault model that moves a number
// fails here with a diff — regenerate deliberately with `make golden`
// and review the fixture change like code.
func TestGoldenSuiteReport(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full-suite run (~2 min)")
	}
	if raceEnabled {
		t.Skip("full suite under -race exceeds the CI budget; the cross-shard race job covers concurrency")
	}
	assertGoldenSuite(t)
}

// TestGoldenSuiteAfterRelease: a suite whose devices are built from
// arena memory another suite released — the campaign executor's and
// the service's steady state — still reproduces the fixture byte for
// byte.
func TestGoldenSuiteAfterRelease(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full-suite run")
	}
	if raceEnabled {
		t.Skip("full suite under -race exceeds the CI budget; TestSuiteReleaseAfterCancel runs under -race")
	}
	prior, err := DefaultSuite(DefaultFigProfile, DefaultSeed+1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := prior.Run(Options{Spec: RunSpec{Only: []string{"recover"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	prior.Release()
	assertGoldenSuite(t)
}

// assertGoldenSuite runs the default suite and byte-compares its report
// with testdata/suite_report.json.
func assertGoldenSuite(t *testing.T) {
	t.Helper()
	want, err := os.ReadFile("testdata/suite_report.json")
	if err != nil {
		t.Fatalf("missing fixture (run `make golden`): %v", err)
	}
	s, err := DefaultSuite(DefaultFigProfile, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Locate the first differing line so the failure is actionable
	// without a 20 KB dump.
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("suite report diverges from testdata/suite_report.json at line %d:\n  fixture: %s\n  got:     %s\n"+
				"If this change is intentional, regenerate with `make golden` and commit the fixture.",
				i+1, w, g)
		}
	}
	t.Fatal("suite report differs from fixture (length mismatch); regenerate with `make golden`")
}
