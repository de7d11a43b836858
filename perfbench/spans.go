package main

import (
	"encoding/json"
	"sort"
	"strings"

	"dramscope/internal/trace"
)

// spanKinds are the span kinds the program records, by the first path
// component that names them: bare components, and "kind:<id>" ones.
var spanKinds = []string{"campaign", "run", "member", "dispatch", "queue", "execute", "warm", "expt", "unit", "merge", "kernel"}

// exptGroups are the experiments whose self time is reported; a
// group covers its sub-experiments ("table3" covers "table3/<device>").
var exptGroups = []string{"defense", "fig16", "fig12", "banks", "fig14", "fig10", "table3", "recover"}

// kindOf returns the kind of the span at path: the last path
// component that names a kind. Experiment names may contain "/"
// ("expt:table3/MfrA-..."), so components are matched, not split off.
func kindOf(path string) string {
	parts := strings.Split(path, "/")
	for i := len(parts) - 1; i >= 0; i-- {
		c := parts[i]
		if j := strings.IndexByte(c, ':'); j > 0 {
			c = c[:j]
		}
		for _, k := range spanKinds {
			if c == k {
				return k
			}
		}
	}
	return ""
}

// selfTimes returns each timed record's self time in microseconds:
// its duration minus the part of it that timed children cover.
// Records without timestamps (warm and kernel spans) get none and
// cover nothing.
func selfTimes(recs []trace.Record) map[string]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[string][]iv)
	for _, r := range recs {
		if r.DurUs > 0 && r.Parent != "" {
			kids[r.Parent] = append(kids[r.Parent], iv{r.StartUs, r.StartUs + r.DurUs})
		}
	}
	self := make(map[string]int64)
	for _, r := range recs {
		if r.DurUs <= 0 {
			continue
		}
		lo, hi := r.StartUs, r.StartUs+r.DurUs
		cs := kids[r.Span]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		covered, at := int64(0), lo
		for _, c := range cs {
			a, b := max(c.lo, at), min(c.hi, hi)
			if b > a {
				covered += b - a
				at = b
			}
		}
		self[r.Span] = r.DurUs - covered
	}
	return self
}

// spanMetrics rolls a traced op's records up by kind and experiment.
// runs is the op's run count and opWall the untraced median op time
// in seconds, the base of host.ns_per_act.
func spanMetrics(ms *metrics, recs []trace.Record, runs int, opWall float64) {
	self := selfTimes(recs)
	kindSelf := make(map[string]int64)
	kindActs := make(map[string]int64)
	groupSelf := make(map[string]int64)
	var acts, batches, merge int64
	var units []float64
	for _, r := range recs {
		k := kindOf(r.Path)
		kindSelf[k] += self[r.Span]
		if r.Counters != nil {
			kindActs[k] += r.Counters.ACT
			acts += r.Counters.ACT
		}
		batches += r.Batches
		switch k {
		case "expt":
			name := r.Path[strings.LastIndex(r.Path, "expt:")+len("expt:"):]
			if j := strings.IndexByte(name, '/'); j > 0 {
				name = name[:j]
			}
			groupSelf[name] += self[r.Span]
		case "unit":
			if strings.HasPrefix(r.Path[strings.LastIndexByte(r.Path, '/')+1:], "unit:") {
				units = append(units, float64(r.DurUs)/1e3)
			}
		case "merge":
			merge += r.DurUs
		}
	}
	for _, k := range spanKinds {
		ms.set("span."+k+".self_s", float64(kindSelf[k])/1e6, "s")
		ms.set("span."+k+".acts", float64(kindActs[k]), "count")
	}
	for _, g := range exptGroups {
		ms.set("expt."+g+"_s", float64(groupSelf[g])/1e6, "s")
	}
	sort.Float64s(units)
	if len(units) > 0 {
		ms.set("expt.unit_p50_ms", median(units), "ms")
		ms.set("expt.unit_max_ms", units[len(units)-1], "ms")
		ms.set("expt.units", float64(len(units)), "count")
	}
	ms.set("expt.merge_ms", float64(merge)/1e3, "ms")
	ms.set("serve.queue_s", float64(kindSelf["queue"])/1e6, "s")
	n := float64(max(runs, 1))
	ms.set("host.acts_per_run", float64(acts)/n, "count")
	ms.set("host.batches_per_run", float64(batches)/n, "count")
	if acts > 0 {
		ms.set("host.ns_per_act", opWall*1e9/float64(acts), "ns")
	}
}

// dispatchSpans attributes a federated campaign's time: the wait of
// each dispatch span that its grafted worker run does not cover
// (polling lag, HTTP, report and trace fetches), and how many members
// each worker ran.
func dispatchSpans(ms *metrics, recs []trace.Record, workers map[string]int) {
	dur := make(map[string]int64, len(recs))
	for _, r := range recs {
		dur[r.Path] = r.DurUs
	}
	var wait int64
	perWorker := make([]int, len(workers))
	total := 0
	for _, r := range recs {
		if !strings.HasPrefix(r.Path[strings.LastIndexByte(r.Path, '/')+1:], "dispatch:") {
			continue
		}
		wait += r.DurUs - dur[r.Path+"/run"]
		var a struct {
			Worker  string `json:"worker"`
			Verdict string `json:"verdict"`
		}
		if json.Unmarshal(r.Attrs, &a) == nil && a.Verdict == "ok" {
			if i, ok := workers[a.Worker]; ok {
				perWorker[i]++
				total++
			}
		}
	}
	ms.set("dispatch.wait_s", float64(wait)/1e6, "s")
	most := 0
	for i, n := range perWorker {
		ms.set("dispatch.worker"+string(rune('0'+i))+"_members", float64(n), "count")
		most = max(most, n)
	}
	if total > 0 {
		ms.set("dispatch.max_worker_share", float64(most)/float64(total), "ratio")
	}
}
