// Command perfbench is dramscope's benchmark: one closed-loop client
// drives one workload through the repository's packages, times a
// window of operations and checks every output. It lists every
// end-to-end metric (with -trace 1, every per-layer metric too) by
// name and unit, then prints one JSON result line: the end-to-end
// metrics, or with -trace 1 the per-layer ones.
//
// Usage, from the repository root (run.py builds and runs it):
//
//	perfbench -workload suite-cold -seed 1 -seconds 12 -trace 0
//
// Workloads: suite-cold, suite-warm, fleet-campaign, campaign-local.
// NOTES.md explains why each exists, which layers it loads and which
// noise sources the measurement design removes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dramscope/internal/core"
	"dramscope/internal/trace"
)

const (
	// maxProcs matches the benchmark host's two cores; no workload
	// runs more than two suite executions at once.
	maxProcs = 2
	// jobs is the suite and campaign worker count on every workload.
	jobs = 2
	// setupReps is how many times a run builds its fixture from
	// nothing; setup_s is the median, so one slow set-up cannot move it.
	setupReps = 3
	// minOps is the fewest timed operations a window holds, so every
	// median has at least three samples even when one op outlasts the
	// requested seconds.
	minOps = 3
	// workRoot holds every store the benchmark writes, inside the
	// checkout's build directory; each run removes its own subtree.
	workRoot = ".bench_build/perfbench-work"
)

// opResult is the outcome of one closed-loop operation: a suite
// report or a whole campaign.
type opResult struct {
	runs  int           // runs attempted: one suite, or one per member
	ok    int           // runs that completed and passed their check
	fails []string      // one reason per failed check
	wall  time.Duration // request to checked result
}

// fixture is one workload after set-up: it can repeat its operation,
// run it once more under a trace, and report its own layer metrics.
type fixture interface {
	op() opResult
	// traced runs one more operation with tracing on and returns the
	// run's span records.
	traced() (opResult, []trace.Record, error)
	// crossCheck checks the traced op's output against an independent
	// reference: the golden report, or the other campaign executor.
	crossCheck() opResult
	// layers adds the workload's own per-layer metrics: what its
	// window and traced op observed, and its store payloads.
	layers(ms *metrics, recs []trace.Record, ps *core.ProbeState) error
	close()
}

type bench struct {
	workload string
	seed     uint64
	work     string // this run's private directory under workRoot
	nextSeed uint64
	ndirs    int
}

// tempDir returns a fresh empty directory inside the run's work dir.
func (b *bench) tempDir() (string, error) {
	b.ndirs++
	dir := filepath.Join(b.work, fmt.Sprintf("d%04d", b.ndirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// seeds hands out n suite seeds never used before in this run, so
// every campaign member is a cache miss. The sequence is a pure
// function of -seed.
func (b *bench) seeds(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = b.nextSeed
		b.nextSeed++
	}
	return out
}

var workloads = map[string]func(b *bench) (fixture, error){
	"suite-cold":     func(b *bench) (fixture, error) { return newSuiteFixture(b, false) },
	"suite-warm":     func(b *bench) (fixture, error) { return newSuiteFixture(b, true) },
	"fleet-campaign": newFleetFixture,
	"campaign-local": newLocalFixture,
}

func main() {
	procStart := time.Now()
	workload := flag.String("workload", "", "suite-cold | suite-warm | fleet-campaign | campaign-local")
	seed := flag.Uint64("seed", 0, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	traceOn := flag.Int("trace", 0, "1 = add a traced op and direct layer timings, and report per-layer metrics")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (suite-cold|suite-warm|fleet-campaign|campaign-local), -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(maxProcs)
	b := &bench{
		workload: *workload,
		seed:     *seed,
		work:     filepath.Join(workRoot, fmt.Sprintf("%s-%d", *workload, os.Getpid())),
		nextSeed: 1000 + *seed*1_000_000,
	}
	ok, err := run(b, procStart, time.Duration(*seconds)*time.Second, *traceOn == 1)
	os.RemoveAll(b.work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes one benchmark run and prints its result line. It
// returns false when any output check failed.
func run(b *bench, procStart time.Time, window time.Duration, traced bool) (bool, error) {
	var (
		fx       fixture
		setups   []time.Duration
		attempts int
		failed   []string
	)
	tally := func(r opResult) {
		attempts += r.runs
		failed = append(failed, r.fails...)
	}
	// Set-up: build the fixture from nothing (fresh stores, a fresh
	// fleet) and run one untimed warm-up op, setupReps times. The first
	// repetition is timed from process start.
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if i == 0 {
			start = procStart
		}
		if fx != nil {
			fx.close()
		}
		var err error
		fx, err = workloads[b.workload](b)
		if err != nil {
			return false, fmt.Errorf("%s set-up: %w", b.workload, err)
		}
		r := fx.op()
		tally(r)
		setups = append(setups, time.Since(start))
		if len(r.fails) > 0 {
			fx.close()
			return reportFailures(b, traced, failed, attempts)
		}
	}
	defer fx.close()

	// Timed window: whole ops, closed loop, for at least the requested
	// seconds and at least minOps ops.
	var (
		walls   []time.Duration
		rates   []float64
		peaks   []float64
		winRuns int
		winOK   int
		// forcedGCs counts the collections the harness itself forces.
		forcedGCs uint32
	)
	ru0, ms0 := rusage(), memStats()
	winStart := time.Now()
	for len(walls) < minOps || time.Since(winStart) < window {
		// Every op starts from a collected heap returned to the OS, so
		// its peak RSS and its speed do not depend on how far earlier
		// ops ratcheted the GC's heap target up.
		gc0 := memStats().NumGC
		debug.FreeOSMemory()
		forcedGCs += memStats().NumGC - gc0
		if err := resetPeakRSS(); err != nil {
			return false, err
		}
		r := fx.op()
		peak, err := peakRSS()
		if err != nil {
			return false, err
		}
		peaks = append(peaks, peak)
		tally(r)
		walls = append(walls, r.wall)
		rate := 0.0
		if r.wall > 0 {
			rate = float64(r.ok) / r.wall.Seconds()
		}
		rates = append(rates, rate)
		winRuns += r.runs
		winOK += r.ok
	}
	winWall := time.Since(winStart)
	ru1, ms1 := rusage(), memStats()

	ms := newMetrics()
	ms.set("setup_s", median(durSeconds(setups)), "s")
	// Throughput is the median over ops, so one slow op (a window
	// where the fleet sat idle) cannot move it; NOTES.md has why.
	ms.set("runs_per_s", median(rates), "1/s")
	ms.set("alloc_mb_per_run", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/float64(max(winOK, 1)), "MB")
	ms.set("peak_rss_mb", median(peaks), "MB")
	ms.set("ok_frac", float64(winOK)/float64(winRuns), "ratio")
	if traced {
		ms.set("runtime.cpu_s_per_run", (cpuSeconds(ru1)-cpuSeconds(ru0))/float64(max(winRuns, 1)), "s")
		ms.set("runtime.gc_per_run", float64(ms1.NumGC-ms0.NumGC-forcedGCs)/float64(max(winRuns, 1)), "count")
		ms.set("runtime.vcsw_per_run", float64(ru1.Nvcsw-ru0.Nvcsw)/float64(max(winRuns, 1)), "count")
		runtime.GC()
		runtime.GC()
		ms.set("runtime.live_heap_mb", float64(memStats().HeapAlloc)/1e6, "MB")

		cpu0 := cpuSeconds(rusage())
		tr, recs, err := fx.traced()
		if err != nil {
			return false, fmt.Errorf("traced op: %w", err)
		}
		tally(tr)
		cpu := cpuSeconds(rusage()) - cpu0
		tally(fx.crossCheck())
		medWall := median(durSeconds(walls))
		ms.set("trace.overhead_ratio", tr.wall.Seconds()/medWall, "ratio")
		ms.set("trace.spans_per_run", float64(len(recs))/float64(max(tr.runs, 1)), "count")
		ms.set("expt.pool_idle_frac", max(0, 1-cpu/(tr.wall.Seconds()*jobs)), "ratio")
		spanMetrics(ms, recs, tr.runs, medWall)
		ps, err := deviceLayers(ms, b)
		if err != nil {
			return false, err
		}
		if err := fx.layers(ms, recs, ps); err != nil {
			return false, err
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d ops, %d runs in %.2fs window; set-ups %v; ops %v\n",
		b.workload, len(walls), winRuns, winWall.Seconds(), setups, walls)
	return emit(ms, traced, attempts, failed)
}

// reportFailures prints a failed set-up's result line: the checks
// that failed and nothing measured.
func reportFailures(b *bench, traced bool, failed []string, attempts int) (bool, error) {
	fmt.Fprintf(os.Stderr, "%s: set-up warm-up op failed its checks\n", b.workload)
	return emit(newMetrics(), traced, attempts, failed)
}

// specFile declares every metric the benchmark reports, with its unit.
const specFile = "BENCHMARK.json"

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared returns the end-to-end and per-layer metrics specFile
// declares.
func declared() (e2e, layers []metricSpec, err error) {
	data, err := os.ReadFile(specFile)
	if err != nil {
		return nil, nil, err
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return spec.EndToEnd, spec.PerLayer, nil
}

// emit prints every measured metric by name and unit (the per-layer
// ones too when traced), each failed check with its reason, and the
// result line last. The result line carries exactly the mode's
// declared metrics; one the workload does not have (serve metrics on
// a suite) reads 0. It returns whether every check passed.
func emit(ms *metrics, traced bool, attempts int, failed []string) (bool, error) {
	e2e, layers, err := declared()
	if err != nil {
		return false, err
	}
	want := e2e
	if traced {
		want = layers
	}
	known := make(map[string]string)
	for _, d := range e2e {
		known[d.Name] = d.Unit
	}
	for _, d := range layers {
		known[d.Name] = d.Unit
	}
	for _, name := range ms.order {
		unit, ok := known[name]
		if !ok {
			return false, fmt.Errorf("metric %s is not declared in %s", name, specFile)
		}
		if m := ms.m[name]; m.Unit != unit {
			return false, fmt.Errorf("metric %s has unit %s, %s declares %s", name, m.Unit, specFile, unit)
		}
	}
	out := make(map[string]metric, len(want))
	for _, w := range want {
		m, ok := ms.m[w.Name]
		if !ok {
			m = metric{Unit: w.Unit}
		}
		out[w.Name] = m
	}
	for _, w := range e2e {
		if m, ok := ms.m[w.Name]; ok {
			fmt.Printf("%-34s %16.6f %s\n", w.Name, m.Value, w.Unit)
		}
	}
	if traced {
		for _, w := range layers {
			fmt.Printf("%-34s %16.6f %s\n", w.Name, out[w.Name].Value, w.Unit)
		}
	}
	for _, f := range failed {
		fmt.Printf("FAILED: %s\n", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(failed) == 0, attempts, len(failed), out})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return len(failed) == 0, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps insertion order for the human-readable listing.
type metrics struct {
	order []string
	m     map[string]metric
}

func newMetrics() *metrics { return &metrics{m: make(map[string]metric)} }

func (ms *metrics) set(name string, v float64, unit string) {
	if _, ok := ms.m[name]; !ok {
		ms.order = append(ms.order, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

func cpuSeconds(ru syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM) at the current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS reads the resident-set high-water mark in MB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// failf formats one failed check's reason.
func failf(format string, a ...interface{}) string {
	return strings.TrimSpace(fmt.Sprintf(format, a...))
}
