package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"dramscope/internal/core"
	"dramscope/internal/expt"
	"dramscope/internal/serve"
	"dramscope/internal/store"
	"dramscope/internal/trace"
)

// fleetWorkers is the worker count of the in-process fleet; each
// worker runs one suite at a time (Budget 1), so the fleet never runs
// more than two suite executions at once.
const fleetWorkers = 2

// fleetFixture is the fleet-campaign workload: one coordinator and two
// workers sharing one store, driven over HTTP exactly like a remote
// client drives dramscoped.
type fleetFixture struct {
	b       *bench
	dir     string
	servers []*serve.Server    // workers first, coordinator last
	https   []*httptest.Server // same order
	workers map[string]int     // worker URL -> index
	base    string             // coordinator URL
	client  *http.Client
	// Per-op serve timings, over every op this fleet ran.
	admit, aggregate, fetch []time.Duration
	storedRuns              int
	// The latest op's campaign, for the traced run.
	lastID    string
	lastAgg   []byte
	lastSpecs []expt.RunSpec
	lastRun0  string
}

func newFleetFixture(b *bench) (fixture, error) {
	dir, err := b.tempDir()
	if err != nil {
		return nil, err
	}
	st, err := store.OpenDir(dir, false)
	if err != nil {
		return nil, err
	}
	f := &fleetFixture{b: b, dir: dir, workers: make(map[string]int),
		client: &http.Client{Timeout: 170 * time.Second}}
	cfg := serve.Config{Store: st}
	for i := 0; i < fleetWorkers; i++ {
		srv := serve.New(serve.Config{Budget: 1, Store: st})
		ts := httptest.NewServer(srv)
		f.servers = append(f.servers, srv)
		f.https = append(f.https, ts)
		f.workers[ts.URL] = i
		cfg.Workers = append(cfg.Workers, ts.URL)
	}
	coord := serve.New(cfg)
	ts := httptest.NewServer(coord)
	f.servers = append(f.servers, coord)
	f.https = append(f.https, ts)
	f.base = ts.URL
	return f, f.firstContact()
}

// firstContact sends the fresh fleet one solo run before any campaign,
// as a client checking a new service does. The coordinator learns a
// worker's capacity only when it first places a member there and
// counts an unprobed worker as having none, so after this run every
// member goes to worker 0 until its queue fills: the fleet runs one
// suite at a time. Without the solo run the first campaign races the
// two probes and a run lands on either speed; NOTES.md has the
// measurements. dispatch.max_worker_share reports the imbalance.
func (f *fleetFixture) firstContact() error {
	profiles, err := expt.MatchProfiles("all")
	if err != nil {
		return err
	}
	seed := f.b.seeds(1)[0]
	body, err := json.Marshal(serve.RunRequest{Profile: profiles[0], Seed: &seed, Only: []string{"recover"}})
	if err != nil {
		return err
	}
	var st serve.RunStatus
	if err := f.call(http.MethodPost, "/runs", body, http.StatusAccepted, &st); err != nil {
		return err
	}
	if _, err := f.get("/runs/" + st.ID + "/stream"); err != nil {
		return err
	}
	if err := f.call(http.MethodGet, "/runs/"+st.ID, nil, http.StatusOK, &st); err != nil {
		return err
	}
	if st.State != serve.StateDone {
		return fmt.Errorf("first solo run ended %s: %s", st.State, st.Error)
	}
	f.storedRuns++
	return nil
}

func (f *fleetFixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := len(f.servers) - 1; i >= 0; i-- {
		_ = f.servers[i].Shutdown(ctx) // every campaign already finished
		f.https[i].Close()
	}
	f.client.CloseIdleConnections()
}

func (f *fleetFixture) op() opResult {
	specs, err := members(f.b)
	if err != nil {
		return opResult{runs: 1, fails: []string{err.Error()}}
	}
	f.lastSpecs = specs
	f.storedRuns += len(specs)
	failed := make(map[int]string)
	failAll := func(format string, a ...interface{}) {
		for i := range specs {
			if _, ok := failed[i]; !ok {
				failed[i] = failf(format, a...)
			}
		}
	}
	req := serve.CampaignRequest{}
	for _, s := range specs {
		seed := s.Seed
		req.Specs = append(req.Specs, serve.RunRequest{Profile: s.Profile, Seed: &seed, Only: s.Only})
	}
	body, err := json.Marshal(req)
	if err != nil {
		failAll("encode campaign: %v", err)
		return tally(specs, failed, 0)
	}

	start := time.Now()
	var st serve.CampaignStatus
	if err := f.call(http.MethodPost, "/campaigns", body, http.StatusAccepted, &st); err != nil {
		failAll("%v", err)
		return tally(specs, failed, time.Since(start))
	}
	f.admit = append(f.admit, time.Since(start))
	f.lastID = st.ID

	resp, err := f.client.Get(f.base + "/campaigns/" + st.ID + "/stream")
	if err != nil {
		failAll("GET stream: %v", err)
		return tally(specs, failed, time.Since(start))
	}
	seen := make(map[int]bool)
	var lastMember, doneAt time.Time
	final := ""
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var ev serve.CampaignStreamEvent
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				failAll("stream line %q: %v", line, jerr)
				break
			}
			if ev.Done {
				doneAt, final = time.Now(), ev.State
				if ev.State != serve.StateDone {
					failAll("campaign ended %s: %s", ev.State, ev.Error)
				}
				break
			}
			if m := ev.Run; m != nil {
				lastMember = time.Now()
				seen[m.Index] = true
				if m.Index == 0 {
					f.lastRun0 = m.RunID
				}
				if m.State != serve.StateDone {
					failed[m.Index] = failf("member %d %s seed %d: state %s: %s", m.Index, m.Profile, m.Seed, m.State, m.Error)
				}
			}
		}
		if err != nil {
			failAll("stream ended before the done line: %v", err)
			break
		}
	}
	resp.Body.Close()
	for i := range specs {
		if !seen[i] {
			if _, ok := failed[i]; !ok {
				failed[i] = failf("member %d: no stream line", i)
			}
		}
	}
	if final != "" && !lastMember.IsZero() {
		f.aggregate = append(f.aggregate, doneAt.Sub(lastMember))
	}

	fetchStart := time.Now()
	agg, err := f.get("/campaigns/" + st.ID + "/report")
	if err != nil {
		failAll("%v", err)
		return tally(specs, failed, time.Since(start))
	}
	f.fetch = append(f.fetch, time.Since(fetchStart))
	wall := time.Since(start)
	f.lastAgg = agg
	checkAggregate(agg, specs, failed)
	return tally(specs, failed, wall)
}

// call sends one JSON request and decodes the JSON answer, failing on
// any status but want.
func (f *fleetFixture) call(method, path string, body []byte, want int, out interface{}) error {
	req, err := http.NewRequest(method, f.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// get fetches one body, failing on any status but 200.
func (f *fleetFixture) get(path string) ([]byte, error) {
	resp, err := f.client.Get(f.base + path)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// traced runs one more campaign and fetches its stitched trace. Every
// served run records a trace, so the op itself is unchanged.
func (f *fleetFixture) traced() (opResult, []trace.Record, error) {
	r := f.op()
	data, err := f.get("/campaigns/" + f.lastID + "/trace")
	if err != nil {
		return r, nil, err
	}
	recs, err := trace.ParseNDJSON(bytes.NewReader(data))
	return r, recs, err
}

// crossCheck runs the traced campaign's members through the local
// executor: the two aggregates must be byte-equal. The comparison
// counts as one checked run.
func (f *fleetFixture) crossCheck() opResult {
	local, err := localCampaign(f.lastSpecs, nil, nil, nil)
	switch {
	case err != nil:
		return opResult{runs: 1, fails: []string{failf("local reference campaign: %v", err)}}
	case !bytes.Equal(f.lastAgg, local):
		return opResult{runs: 1, fails: []string{failf("served aggregate (%d bytes) differs from the local campaign aggregate (%d bytes)", len(f.lastAgg), len(local))}}
	}
	return opResult{runs: 1, ok: 1}
}

func (f *fleetFixture) layers(ms *metrics, recs []trace.Record, ps *core.ProbeState) error {
	ms.set("serve.admit_ms", median(durSeconds(f.admit))*1e3, "ms")
	ms.set("serve.aggregate_ms", median(durSeconds(f.aggregate))*1e3, "ms")
	ms.set("serve.report_fetch_ms", median(durSeconds(f.fetch))*1e3, "ms")

	var m serve.Metrics
	if err := f.call(http.MethodGet, "/metrics", nil, http.StatusOK, &m); err != nil {
		return err
	}
	if m.Federation == nil {
		return fmt.Errorf("coordinator /metrics has no federation block")
	}
	fed := m.Federation
	ms.set("dispatch.attempts", float64(fed.Dispatched)/float64(max(f.storedRuns, 1)), "count/run")
	ms.set("dispatch.retried", float64(fed.Retried), "count")
	ms.set("dispatch.fallback_local", float64(fed.FallbackLocal), "count")
	dispatchSpans(ms, recs, f.workers)

	n, err := dirBytes(f.dir)
	if err != nil {
		return err
	}
	ms.set("store.bytes", float64(n)/float64(max(f.storedRuns, 1)), "B/run")
	report, err := f.get("/runs/" + f.lastRun0 + "/report")
	if err != nil {
		return err
	}
	s := f.lastSpecs[0]
	suite, err := expt.DefaultSuite(s.Profile, s.Seed)
	if err != nil {
		return err
	}
	rs, err := suite.Resolve(s)
	if err != nil {
		return err
	}
	return storeLayers(ms, f.b, ps, report, rs.Canonical())
}
