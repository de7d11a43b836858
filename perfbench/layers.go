package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"dramscope/internal/chip"
	"dramscope/internal/core"
	"dramscope/internal/expt"
	"dramscope/internal/host"
	"dramscope/internal/sim"
	"dramscope/internal/store"
	"dramscope/internal/topo"
)

// Repetitions of each direct layer call; the median is reported.
const (
	storeReps   = 21
	cloneReps   = 21
	deviceReps  = 5
	faultCells  = 64 * 1024 // cells per faults-kernel timing pass
	pulseActs   = 300_000   // one hammer pass, above every flip floor
	retentionMs = 300       // unrefreshed wait before a retention scan
)

// timeIt returns the median wall time of reps calls of fn.
func timeIt(reps int, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, reps)
	for i := range ds {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(start)
	}
	return time.Duration(median(durSeconds(ds)) * float64(time.Second)), nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// deviceLayers times direct calls into core, expt, chip and faults on
// the suite's figure device, each beside its exact work count. The
// device and seed are the same on every workload, so these numbers
// compare across workloads.
// It returns the device's probe chain, the store layer's payload.
func deviceLayers(m *metrics, b *bench) (*core.ProbeState, error) {
	prof, ok := topo.ByName(expt.DefaultFigProfile)
	if !ok {
		return nil, fmt.Errorf("unknown profile %s", expt.DefaultFigProfile)
	}
	seed := uint64(expt.DefaultSeed)

	// core: the probe chain on a fresh device, one probe at a time.
	env, err := expt.NewEnv(prof, seed)
	if err != nil {
		return nil, err
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"order", func() error { _, err := env.Order(); return err }},
		{"subarrays", func() error { _, err := env.Subarrays(); return err }},
		{"cells", func() error { _, err := env.Cells(); return err }},
		{"swizzle", func() error { _, err := env.Swizzle(); return err }},
	}
	for _, s := range steps {
		before := env.Commands()
		start := time.Now()
		if err := s.fn(); err != nil {
			return nil, fmt.Errorf("core %s: %w", s.name, err)
		}
		m.set("core."+s.name+"_ms", ms(time.Since(start)), "ms")
		m.set("core."+s.name+"_acts", float64(env.Commands().ACT-before.ACT), "count")
	}

	// expt: a pooled clone of the warmed device, and a store hit.
	if c, err := env.Clone(); err == nil {
		c.Release() // the first clone builds the pooled device
	}
	d, err := timeIt(cloneReps, func() error {
		c, err := env.Clone()
		if err == nil {
			c.Release()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	m.set("expt.clone_us", d.Seconds()*1e6, "us")
	dir, err := b.tempDir()
	if err != nil {
		return nil, err
	}
	st, err := store.OpenDir(dir, false)
	if err != nil {
		return nil, err
	}
	ps, ok := env.ExportProbes(expt.ProbeSwizzle)
	if !ok {
		return nil, fmt.Errorf("probe chain did not complete")
	}
	if err := st.SaveProbes(store.ProbeKey{Profile: prof, Seed: seed, Level: int(expt.ProbeSwizzle)}, ps); err != nil {
		return nil, err
	}
	var warm []time.Duration
	for i := 0; i < deviceReps; i++ {
		e, err := expt.NewEnv(prof, seed)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := e.WarmStored(st, expt.ProbeSwizzle); err != nil {
			return nil, err
		}
		warm = append(warm, time.Since(start))
		if c := e.Commands(); c != (host.Counters{}) {
			return nil, fmt.Errorf("WarmStored on a stored chain issued commands: %v", c)
		}
	}
	m.set("expt.warm_stored_ms", median(durSeconds(warm))*1e3, "ms")

	return ps, chipLayers(m, prof, seed)
}

// chipLayers times the chip's constructor, reset, ACT-train and
// retention-scan kernels and the faults draws they are built on.
func chipLayers(m *metrics, prof topo.Profile, seed uint64) error {
	var c *chip.Chip
	d, err := timeIt(deviceReps, func() error {
		var err error
		c, err = chip.New(prof, seed)
		return err
	})
	if err != nil {
		return err
	}
	m.set("chip.new_ms", ms(d), "ms")

	tp := c.Topology()
	victim, aggr := tp.UnmapRow(31, 0), tp.UnmapRow(32, 0)
	ones := uint64(1)<<uint(c.DataWidth()) - 1
	buf := make([]uint64, c.Columns())
	var pulses, resets, scans []time.Duration
	for i := 0; i < deviceReps; i++ {
		h := host.New(c)
		if err := h.FillRow(0, victim, ones); err != nil {
			return err
		}
		if err := h.FillRow(0, aggr, 0); err != nil {
			return err
		}
		start := time.Now()
		if err := h.Hammer(0, aggr, pulseActs); err != nil {
			return err
		}
		pulses = append(pulses, time.Since(start))
		if err := h.ReadRowInto(0, victim, buf); err != nil {
			return err
		}

		if err := h.FillRow(0, victim, ones); err != nil {
			return err
		}
		if err := h.Wait(retentionMs * sim.Millisecond); err != nil {
			return err
		}
		start = time.Now()
		if err := h.ReadRowInto(0, victim, buf); err != nil {
			return err
		}
		scans = append(scans, time.Since(start))

		start = time.Now()
		c.Reset()
		resets = append(resets, time.Since(start))
	}
	m.set("chip.pulse_ns_per_act", median(durSeconds(pulses))*1e9/pulseActs, "ns")
	m.set("chip.pulse_acts", pulseActs, "count")
	m.set("chip.reset_us", median(durSeconds(resets))*1e6, "us")
	m.set("chip.retention_scan_ms", median(durSeconds(scans))*1e3, "ms")
	m.set("chip.retention_scan_reads", float64(len(buf)), "count")

	p := c.FaultParams()
	var sink int64
	d, _ = timeIt(deviceReps, func() error {
		for i := 0; i < faultCells; i++ {
			sink += int64(p.RetentionTime(0, i/1024, i%1024))
		}
		return nil
	})
	m.set("faults.retention_time_ns", float64(d.Nanoseconds())/faultCells, "ns")
	d, _ = timeIt(deviceReps, func() error {
		for i := 0; i < faultCells; i++ {
			if p.HammerFlips(0, i/1024, i%1024, 1e5) {
				sink++
			}
		}
		return nil
	})
	m.set("faults.hammer_flips_ns", float64(d.Nanoseconds())/faultCells, "ns")
	m.set("faults.calls", faultCells, "count")
	if sink == 0 {
		return fmt.Errorf("faults kernels returned nothing")
	}
	return nil
}

// storeLayers times the store's save and load paths on the workload's
// own payloads: the figure device's probe chain and one run report.
func storeLayers(m *metrics, b *bench, ps *core.ProbeState, report, canon []byte) error {
	prof, _ := topo.ByName(expt.DefaultFigProfile)
	seed := uint64(expt.DefaultSeed)
	dir, err := b.tempDir()
	if err != nil {
		return err
	}
	st, err := store.OpenDir(dir, false)
	if err != nil {
		return err
	}
	pk := store.ProbeKey{Profile: prof, Seed: seed, Level: int(expt.ProbeSwizzle)}
	rk := store.ReportKey{Spec: canon}
	calls := []struct {
		name string
		fn   func() error
	}{
		{"save_probes", func() error { return st.SaveProbes(pk, ps) }},
		{"load_probes", func() error {
			if _, ok := st.LoadProbes(pk); !ok {
				return fmt.Errorf("stored probe chain did not load")
			}
			return nil
		}},
		{"save_report", func() error { return st.SaveReport(rk, report) }},
		{"load_report", func() error {
			if got, ok := st.LoadReport(rk); !ok || !bytes.Equal(got, report) {
				return fmt.Errorf("stored report did not load byte-exact")
			}
			return nil
		}},
	}
	for _, c := range calls {
		d, err := timeIt(storeReps, c.fn)
		if err != nil {
			return fmt.Errorf("store %s: %w", c.name, err)
		}
		m.set("store."+c.name+"_ms", ms(d), "ms")
	}
	m.set("store.report_bytes", float64(len(report)), "B")
	return nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
