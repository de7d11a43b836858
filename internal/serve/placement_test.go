package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// This file pins the placement rule: every eligible worker's admission
// capacity is known before pick runs, so most-free placement balances
// on real free capacity from the first member on.

// probeDouble is a worker stand-in that only answers the capacity
// probe, counting the hits.
type probeDouble struct {
	ts   *httptest.Server
	hits atomic.Int64
}

func newProbeDouble(t *testing.T, capacity int, delay time.Duration) *probeDouble {
	t.Helper()
	d := &probeDouble{}
	d.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		d.hits.Add(1)
		time.Sleep(delay)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"queue":{"capacity":%d,"workers":0}}`, capacity)
	}))
	t.Cleanup(d.ts.Close)
	return d
}

// One worker already probed and one never contacted: the unprobed one
// is probed before placement, so two placements land on both nodes
// instead of the probed node taking both.
func TestPickWorkerProbesUnprobedWorker(t *testing.T) {
	t.Parallel()
	probed := newProbeDouble(t, 1, 0)
	fresh := newProbeDouble(t, 1, 0)
	f := NewFederator(FederationOptions{Workers: []string{probed.ts.URL, fresh.ts.URL}})
	f.workers[0].capacity = 1

	ctx := context.Background()
	got := map[string]int{}
	for i := 0; i < 2; i++ {
		w := f.pickWorker(ctx, map[string]bool{})
		if w == nil {
			t.Fatalf("placement %d found no worker", i)
		}
		got[w.url]++
	}
	if got[probed.ts.URL] != 1 || got[fresh.ts.URL] != 1 {
		t.Fatalf("placements = %v, want one on each worker", got)
	}
	if n := probed.hits.Load(); n != 0 {
		t.Errorf("already-probed worker was probed %d more times", n)
	}
	if n := fresh.hits.Load(); n != 1 {
		t.Errorf("fresh worker probed %d times, want 1", n)
	}
}

// N concurrent first placements on a fresh fleet share one probe per
// worker and split evenly across the fleet.
func TestConcurrentFirstPlacementsProbeOnce(t *testing.T) {
	t.Parallel()
	const n = 16
	doubles := []*probeDouble{
		newProbeDouble(t, n/2, 50*time.Millisecond),
		newProbeDouble(t, n/2, 20*time.Millisecond),
	}
	f := NewFederator(FederationOptions{Workers: []string{doubles[0].ts.URL, doubles[1].ts.URL}})

	var wg sync.WaitGroup
	placed := make([]*fedWorker, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			placed[i] = f.pickWorker(context.Background(), map[string]bool{})
		}(i)
	}
	wg.Wait()
	for i, d := range doubles {
		if hits := d.hits.Load(); hits != 1 {
			t.Errorf("worker %d probed %d times, want exactly 1", i, hits)
		}
	}
	per := map[string]int{}
	for i, w := range placed {
		if w == nil {
			t.Fatalf("placement %d found no worker", i)
		}
		per[w.url]++
	}
	for i, d := range doubles {
		if per[d.ts.URL] != n/2 {
			t.Errorf("worker %d took %d of %d placements, want %d", i, per[d.ts.URL], n, n/2)
		}
	}
	snap := f.Snapshot()
	for i, node := range snap.Nodes {
		if node.Capacity != n/2 || node.InFlight != n/2 {
			t.Errorf("metrics node %d = %+v, want capacity and inflight %d", i, node, n/2)
		}
	}
}

// A placement whose context ends while it waits on a probe gives up
// without benching the worker: the probe belongs to every waiter.
func TestPickWorkerCanceledWhileProbing(t *testing.T) {
	t.Parallel()
	slow := newProbeDouble(t, 4, 200*time.Millisecond)
	f := NewFederator(FederationOptions{Workers: []string{slow.ts.URL}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if w := f.pickWorker(ctx, map[string]bool{}); w != nil {
		t.Fatalf("canceled placement got worker %s", w.url)
	}
	if w := f.pickWorker(context.Background(), map[string]bool{}); w == nil {
		t.Fatal("the worker was benched by another placement's cancellation")
	}
	if n := slow.hits.Load(); n != 1 {
		t.Errorf("worker probed %d times, want 1", n)
	}
}

// A fresh two-worker fleet spreads a campaign across both workers —
// cold, and after a solo run made first contact — and /metrics shows
// each worker's share.
func TestFreshFleetSpreadsCampaign(t *testing.T) {
	t.Parallel()
	seeds := []uint64{71, 72, 73, 74, 75, 76}
	wantAgg, wantMembers := localCampaign(t, testFactory, seeds)
	for _, solo := range []bool{false, true} {
		solo := solo
		t.Run(fmt.Sprintf("solo-first=%v", solo), func(t *testing.T) {
			t.Parallel()
			w1, w1ts := newWorker(t, Config{Factory: testFactory})
			w2, w2ts := newWorker(t, Config{Factory: testFactory})
			srv, ts := newCoordinator(t, Config{
				Factory: testFactory,
				Workers: []string{w1ts.URL, w2ts.URL},
			})
			var before [2]int64
			if solo {
				st, resp := postRun(t, ts, `{"seed":70}`)
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("solo POST status = %d", resp.StatusCode)
				}
				if final := waitDone(t, ts, st.ID); final.State != StateDone {
					t.Fatalf("solo run state = %s", final.State)
				}
				before = [2]int64{w1.mgr.metrics.executed.Load(), w2.mgr.metrics.executed.Load()}
			}
			assertFederatedCampaign(t, ts, seeds, wantAgg, wantMembers)
			for i, w := range []*Server{w1, w2} {
				if n := w.mgr.metrics.executed.Load() - before[i]; n == 0 {
					t.Errorf("worker %d executed no campaign member; placement pinned the fleet to one node", i)
				}
			}
			nodes := srv.mgr.fed.Snapshot().Nodes
			if len(nodes) != 2 {
				t.Fatalf("metrics federation nodes = %+v, want 2 rows", nodes)
			}
			var done int64
			for i, node := range nodes {
				if node.Capacity == 0 || node.RemoteDone == 0 || node.InFlight != 0 {
					t.Errorf("metrics node %d = %+v, want probed, with completions, idle", i, node)
				}
				done += node.RemoteDone
			}
			want := int64(len(seeds))
			if solo {
				want++
			}
			if done != want {
				t.Errorf("per-node remoteDone sums to %d, want %d", done, want)
			}
		})
	}
}
