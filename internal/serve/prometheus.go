package serve

import (
	"fmt"
	"strconv"
	"strings"
)

// This file renders GET /metrics in Prometheus text exposition format
// (version 0.0.4) — negotiated by ?format=prometheus or an
// Accept: text/plain header — so a stock Prometheus scrape job can
// watch a dramscoped fleet without a sidecar translator. The renderer
// is a pure function of a metrics snapshot, which is what the golden
// test byte-compares.

// prometheusContentType is the exposition-format content type a
// Prometheus scraper expects.
const prometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// histSnapshot freezes the latency histogram's raw state for
// rendering: cumulative bucket counts are derived here, not stored.
type histSnapshot struct {
	bounds []float64
	counts []int64 // len(bounds)+1; last is the overflow bucket
	total  int64
	sum    float64
}

// PrometheusMetrics renders the manager's operational state in
// Prometheus text format.
func (m *Manager) PrometheusMetrics() []byte {
	met := m.Metrics()
	mx := m.metrics
	mx.mu.Lock()
	hist := histSnapshot{
		bounds: mx.hist.bounds,
		counts: append([]int64(nil), mx.hist.counts...),
		total:  mx.hist.total,
		sum:    mx.hist.sum,
	}
	mx.mu.Unlock()
	return renderPrometheus(met, hist)
}

// renderPrometheus is the pure exposition renderer: metric families in
// a fixed order, counters suffixed _total, the latency histogram with
// cumulative le buckets. Deterministic for a fixed snapshot — the
// golden test relies on that.
func renderPrometheus(m Metrics, hist histSnapshot) []byte {
	var b strings.Builder

	gauge := func(name, help string, v interface{}) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			name, help, name, name, promVal(v))
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			name, help, name, name, v)
	}

	gauge("dramscope_queue_depth", "Admitted executions waiting for worker tokens.", m.Queue.Depth)
	gauge("dramscope_queue_capacity", "Configured admission waiting-room size.", m.Queue.Capacity)
	gauge("dramscope_queue_inflight", "Executions currently holding worker tokens.", m.Queue.InFlight)
	gauge("dramscope_queue_workers", "Worker-token pool size.", m.Queue.Workers)

	counter("dramscope_runs_admitted_total", "Runs registered, all admission paths.", m.Runs.Admitted)
	counter("dramscope_runs_executed_total", "Runs that launched a suite execution.", m.Runs.Executed)
	counter("dramscope_runs_coalesced_total", "Runs that joined an in-flight identical execution.", m.Runs.Coalesced)
	counter("dramscope_runs_rejected_queue_total", "Admissions refused with 429: queue full.", m.Runs.RejectedQueue)
	counter("dramscope_runs_rejected_quota_total", "Admissions refused with 429: client quota.", m.Runs.RejectedQuota)
	counter("dramscope_runs_done_total", "Executions that finished clean.", m.Runs.Done)
	counter("dramscope_runs_failed_total", "Executions that finished with errors.", m.Runs.Failed)
	counter("dramscope_runs_canceled_total", "Executions canceled before finishing.", m.Runs.Canceled)

	counter("dramscope_cache_lru_hits_total", "Admissions answered by the in-memory LRU.", m.Cache.LRUHits)
	counter("dramscope_cache_store_hits_total", "Admissions answered by the persistent store.", m.Cache.StoreHits)
	gauge("dramscope_cache_entries", "Result-cache entries resident.", m.Cache.Entries)
	gauge("dramscope_cache_hit_rate", "Fraction of admissions served without a fresh execution.", m.Cache.HitRate)

	b.WriteString("# HELP dramscope_probe_commands_total Cumulative probe-chain DRAM commands across finished executions.\n")
	b.WriteString("# TYPE dramscope_probe_commands_total counter\n")
	for _, op := range []struct {
		name string
		v    int64
	}{{"act", m.Probe.ACT}, {"pre", m.Probe.PRE}, {"rd", m.Probe.RD}, {"wr", m.Probe.WR}, {"ref", m.Probe.REF}} {
		fmt.Fprintf(&b, "dramscope_probe_commands_total{op=%q} %d\n", op.name, op.v)
	}
	counter("dramscope_activations_used_total", "Metered ACT commands across finished executions.", m.Probe.ActivationsUsed)

	b.WriteString("# HELP dramscope_run_latency_ms Run latency from admission to terminal state, executed runs only.\n")
	b.WriteString("# TYPE dramscope_run_latency_ms histogram\n")
	var cum int64
	for i, bound := range hist.bounds {
		cum += hist.counts[i]
		fmt.Fprintf(&b, "dramscope_run_latency_ms_bucket{le=%q} %d\n", promVal(bound), cum)
	}
	if n := len(hist.bounds); n < len(hist.counts) {
		cum += hist.counts[n]
	}
	fmt.Fprintf(&b, "dramscope_run_latency_ms_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(&b, "dramscope_run_latency_ms_sum %s\n", promVal(hist.sum))
	fmt.Fprintf(&b, "dramscope_run_latency_ms_count %d\n", hist.total)

	if m.Federation != nil {
		f := m.Federation
		gauge("dramscope_federation_workers", "Configured worker nodes.", f.Workers)
		gauge("dramscope_federation_healthy", "Worker nodes currently in placement.", f.Healthy)
		counter("dramscope_federation_dispatched_total", "Member-to-worker placement attempts.", f.Dispatched)
		counter("dramscope_federation_remote_done_total", "Members finished clean on a worker.", f.RemoteDone)
		counter("dramscope_federation_remote_failed_total", "Members finished failed on a worker.", f.RemoteFailed)
		counter("dramscope_federation_retried_total", "Re-dispatches after a worker fault.", f.Retried)
		counter("dramscope_federation_stolen_total", "Re-dispatches after a member timeout.", f.Stolen)
		counter("dramscope_federation_fallback_local_total", "Members no worker could take, run locally.", f.FallbackLocal)
		for _, fam := range []struct {
			name, kind, help string
			v                func(MetricsFedNode) int64
		}{
			{"dramscope_federation_node_capacity", "gauge", "Worker admission capacity from its /metrics (0 = not probed yet).",
				func(n MetricsFedNode) int64 { return int64(n.Capacity) }},
			{"dramscope_federation_node_inflight", "gauge", "Members currently dispatched to the worker.",
				func(n MetricsFedNode) int64 { return int64(n.InFlight) }},
			{"dramscope_federation_node_remote_done_total", "counter", "Members finished clean on the worker.",
				func(n MetricsFedNode) int64 { return n.RemoteDone }},
		} {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", fam.name, fam.help, fam.name, fam.kind)
			for _, n := range f.Nodes {
				fmt.Fprintf(&b, "%s{url=%q} %d\n", fam.name, n.URL, fam.v(n))
			}
		}
	}
	return []byte(b.String())
}

// promVal formats a metric value: integers plainly, floats in the
// shortest round-trip form Prometheus accepts.
func promVal(v interface{}) string {
	switch x := v.(type) {
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	default:
		return fmt.Sprintf("%v", x)
	}
}
