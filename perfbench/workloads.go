package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"treesketch/internal/eval"
	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/stable"
	"treesketch/internal/tier"
)

// report is what one workload run measured and checked.
type report struct {
	counts tally
	// problems are failed output checks made after the run; each counts as
	// one attempted and failed operation.
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
	notes    []string
	spans    *recorder // traced runs
}

func newReport() *report {
	return &report{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// problem records a failed output check.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// timing stores a stream's p50 and p99 in milliseconds under prefix_p50_ms
// and prefix_p99_ms, and notes its sample count and tail count. It returns
// the summary for callers that report more of it.
func (r *report) timing(into map[string]float64, prefix string, samples []float64, withP99 bool) dist {
	d := summarize(samples)
	into[prefix+"_p50_ms"] = 1000 * d.P50
	if withP99 {
		into[prefix+"_p99_ms"] = 1000 * d.P99
		if !d.tailMeasured() && d.N > 0 {
			r.notes = append(r.notes, fmt.Sprintf("warning: %s p99 has only %d samples beyond it", prefix, d.Beyond))
		}
	}
	r.notes = append(r.notes, fmt.Sprintf("%s: %s", prefix, d))
	return d
}

// servingE2E fills the end-to-end metrics both serving workloads share.
func servingE2E(rep *report, setups *setupLog, lr loopResult) {
	rep.e2e["setup_s"] = median(setups.times)
	rep.e2e["estimate_p95_ms"] = 1000 * rep.timing(rep.e2e, "estimate", lr.estimates, true).P95
	// The median slice's rate: a slice that meets a compaction burst or a
	// slow host period does not move it.
	rep.e2e["estimate_qps"] = median(lr.qps)
	var rates []float64
	for _, l := range setups.rounds {
		rates = append(rates, float64(l.elems)/l.build)
	}
	rep.e2e["build_elems_per_s"] = median(rates)
	rep.e2e["retained_heap_bytes_per_op"] = lr.retained / float64(lr.ops())
}

// runStatic is the static-read workload: a closed loop of GET /estimate
// over frozen synopses, every answer checked against in-process eval.
func runStatic(seed int64, d time.Duration, traced bool, hp *hostProbe) (*report, error) {
	rep := newReport()
	var rec *recorder
	if traced {
		rec = newRecorder()
		rep.spans = rec
	}
	s, setups, err := servingSetups(false, rec)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	// The setup heap is read before the expected answers are computed, so
	// the plan-cache entries they leave are not charged to setup.
	rep.e2e["setup_heap_mb"] = float64(liveHeap()) / 1e6
	w, err := expectedAnswers(s)
	if err != nil {
		return nil, err
	}
	tg := targets(s.docs)
	streams := make([]*stream, staticClients)
	for i := range streams {
		streams[i] = newStream(seed, i, s.docs)
	}
	step := func(c *client, i int) {
		r := streams[i].nextRead()
		want := w[r.doc][r.query][r.mode]
		name := s.docs[r.doc].name
		// encoding/json round-trips a float64 exactly, so the served
		// selectivity must equal the in-process one bit for bit.
		c.estimate(tg[r.doc][r.query][r.mode], r, func(a answer) bool {
			return a.Dataset == name && a.Selectivity == want.Selectivity && a.ResultNodes == want.ResultNodes
		})
	}
	reg0 := s.reg.Snapshot()
	un, tr, err := measure(s, staticClients, d, rec, false, step, setups, nil, hp)
	if err != nil {
		return nil, err
	}
	reg1 := s.reg.Snapshot()
	rep.counts.add(un.counts)
	rep.counts.add(tr.counts)

	servingE2E(rep, setups, un)
	rep.e2e["sel_mre_pct"] = staticMRE(w)
	if !traced {
		return rep, nil
	}
	servingLayers(rep, s, un, tr, reg0, reg1)
	allocsPerRequest(rep, s, tr.traced)
	if err := layerSetup(rep, s.docs); err != nil {
		return nil, err
	}
	return rep, replayStatic(rep, s, tr.traced, rec)
}

// runLive is the live-mixed workload: a closed loop of /estimate with
// updatePct percent scripted POST /update against tier stacks. Each
// document's updates come from the one client that owns it, in script
// order, so every scripted op is valid when it arrives.
func runLive(seed int64, d time.Duration, traced bool, hp *hostProbe) (*report, error) {
	rep := newReport()
	var rec *recorder
	if traced {
		rec = newRecorder()
		rep.spans = rec
	}
	s, setups, err := servingSetups(true, rec)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	rep.e2e["setup_heap_mb"] = float64(liveHeap()) / 1e6
	n := min(liveClients, runtime.NumCPU())
	mirrors := make([]*mirror, len(s.docs))
	for i, doc := range s.docs {
		mirrors[i] = newMirror(doc, seed, i)
	}
	if err := warmLive(s, mirrors); err != nil {
		return nil, err
	}
	owned := make([][]int, n)
	for di := range s.docs {
		owned[di%n] = append(owned[di%n], di)
	}
	tg := targets(s.docs)
	streams := make([]*stream, n)
	for i := range streams {
		streams[i] = newStream(seed, i, s.docs)
	}
	step := func(c *client, i int) {
		r, update := streams[i].nextLive(owned[i])
		if update {
			c.update(r.doc, mirrors[r.doc].next())
			return
		}
		name := s.docs[r.doc].name
		c.estimate(tg[r.doc][r.query][modeApprox], r, func(a answer) bool {
			return a.Dataset == name && a.Tier != nil && a.Selectivity >= 0 && !math.IsInf(a.Selectivity, 0)
		})
	}
	var sent func() []int
	if traced {
		sent = func() []int {
			out := make([]int, len(mirrors))
			for i, m := range mirrors {
				out[i] = m.sent
			}
			return out
		}
	}
	compactions0 := s.reg.Counter("tier.compactions").Value()
	reg0 := s.reg.Snapshot()
	un, tr, err := measure(s, n, d, rec, true, step, setups, sent, hp)
	if err != nil {
		return nil, err
	}
	reg1 := s.reg.Snapshot()
	compactions := s.reg.Counter("tier.compactions").Value() - compactions0
	rep.counts.add(un.counts)
	rep.counts.add(tr.counts)

	servingE2E(rep, setups, un)
	rep.timing(rep.e2e, "update", un.updates, true)
	rep.e2e["update_ops_per_s"] = float64(len(un.updates)) / un.wall
	if traced {
		servingLayers(rep, s, un, tr, reg0, reg1)
		rep.layer["tier.compactions"] = float64(compactions)
		rep.layer["tier.depth_mean"] = mean(un.depths)
	}
	mre, err := liveChecks(rep, s, mirrors)
	if err != nil {
		return nil, err
	}
	rep.e2e["sel_mre_pct"] = mre
	if !traced {
		return rep, nil
	}
	allocsPerRequest(rep, s, tr.traced)
	if err := layerSetup(rep, s.docs); err != nil {
		return nil, err
	}
	return rep, replayLive(rep, s, seed, tr, rec)
}

// warmMoved is the share of its elements each live document's updates move
// before the loop starts. At the default compaction thresholds (a tenth of
// the document) that is a couple of compactions, so the loop starts with
// the delta tiers in their steady cycle instead of ramping up from an
// empty delta.
const warmMoved = 0.25

// warmLive sends each document's scripted updates from one client until
// they have moved warmMoved of its elements, then waits for in-flight
// compactions.
func warmLive(s *served, mirrors []*mirror) error {
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	c := &client{hc: hc, base: s.base}
	for i, m := range mirrors {
		for moved := 0; float64(moved) < warmMoved*float64(len(m.live)); {
			op := m.next()
			c.update(i, op)
			moved += op.moved
		}
	}
	if c.counts.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d updates failed", c.counts.failed, c.counts.attempted)
	}
	s.settle()
	return nil
}

// liveChecks verifies the live stacks after the loop: each server document
// equals its mirror, the live answers' error against exact truth on the
// final document (returned as the mean relative error in percent), and,
// after a full compaction, view conservation and a base fingerprint equal
// to a from-scratch compaction of the final document.
func liveChecks(rep *report, s *served, mirrors []*mirror) (float64, error) {
	var sum float64
	n := 0
	for i, st := range s.stacks {
		m := mirrors[i]
		if err := m.sameDoc(st.Doc()); err != nil {
			rep.problem("%v", err)
			continue
		}
		final := m.tree()
		ix := eval.NewIndex(final)
		v := st.View()
		var truths, ests []float64
		for _, text := range s.docs[i].queries {
			q, err := query.Parse(text)
			if err != nil {
				return 0, err
			}
			truths = append(truths, eval.Exact(ix, q).Tuples)
			_, got, _ := v.Estimate(q, eval.Options{Metrics: obs.NewRegistry()})
			ests = append(ests, got)
		}
		sanity := max(1, quantileOf(truths, 0.1))
		for k := range truths {
			sum += eval.RelativeError(truths[k], ests[k], sanity)
			n++
		}
		st.Compact()
		cv := st.View()
		if err := cv.CheckConservation(); err != nil {
			rep.problem("%s: %v", m.name, err)
		}
		want := tier.CompactSketch(stable.Build(final), serveBudget, 0, obs.NewRegistry())
		if got := cv.Base.Fingerprint(); got != want.Fingerprint() {
			rep.problem("%s: compacted base fingerprint %016x != rebuild %016x", m.name, got, want.Fingerprint())
		}
	}
	return 100 * ratio(sum, float64(n)), nil
}

// counterDelta is a registry counter's growth between two snapshots.
func counterDelta(a, b obs.Snapshot, name string) float64 {
	return float64(b.Counters[name] - a.Counters[name])
}

// evalCacheRatios reports the useful share of eval's plan-cache and
// selectivity-memo lookups between two snapshots of the registry eval
// reported to.
func evalCacheRatios(rep *report, a, b obs.Snapshot) {
	hits := counterDelta(a, b, "eval.approx.plan.hits")
	rep.layer["eval.plan_hit_ratio"] = ratio(hits, hits+counterDelta(a, b, "eval.approx.plan.misses"))
	hits = counterDelta(a, b, "eval.approx.selmemo.hits")
	rep.layer["eval.selmemo_hit_ratio"] = ratio(hits, hits+counterDelta(a, b, "eval.approx.selmemo.misses"))
}

// servingLayers reports the serve, client and eval-cache metrics of a
// traced serving run. reg0 and reg1 bracket the loop's slices.
func servingLayers(rep *report, s *served, un, tr loopResult, reg0, reg1 obs.Snapshot) {
	rep.layer["runtime.gc_cpu_fraction"] = un.gc.fraction()
	rep.layer["runtime.gc_cycles_per_kop"] = float64(un.gc.cycles) / (float64(un.ops()) / 1000)
	rep.layer["runtime.retained_heap_bytes_per_op"] = rep.e2e["retained_heap_bytes_per_op"]
	all := un.counts
	all.add(tr.counts)
	rep.layer["serve.shed_ratio"] = ratio(float64(all.refused), float64(all.attempted))
	rep.layer["client.overhead_p50_ms"] = 1000 * summarize(un.overheads).P50
	evalCacheRatios(rep, reg0, reg1)
	// Two clients never exceed the admission gate's slots, so requests
	// queue only if the gate shrinks; the gate's waits are visible only as
	// a bucketed window, used when there is anything to report.
	rep.layer["serve.queue_wait_p99_ms"] = 0
	if counterDelta(reg0, reg1, "serve.admission.queued") > 0 {
		rep.layer["serve.queue_wait_p99_ms"] = 1000 * s.reg.Windowed("serve.admission.queue_wait_seconds").Quantile(0.99)
		rep.notes = append(rep.notes, "serve.queue_wait_p99_ms: read from the admission gate's log-2 window")
	}
	rep.layer["trace.overhead_pct"] = 100 * (summarize(tr.estimates).P50/summarize(un.estimates).P50 - 1)
}
