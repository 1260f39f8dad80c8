package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"treesketch/internal/eval"
	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/stable"
	"treesketch/internal/tier"
	"treesketch/internal/tsbuild"
	"treesketch/internal/xmltree"
)

// The replays below call each layer's public functions directly, in the
// order the traced slices called them through the server, because inside a
// request those layers are reachable only through their caller. Their
// durations become the children of the request's "serve.handle" span, so
// the handler's self time is what the replayed calls do not cover.

// maxReplayRounds bounds how often a replay repeats its operations to
// collect minTailSamples samples for a p99.
const maxReplayRounds = 20

// allocsPerRequest calls the server's handler directly, on one goroutine,
// for the traced slices' estimate requests and reports the allocations per
// request. Requests and recorders are built before counting starts.
func allocsPerRequest(rep *report, s *served, ops []tracedOp) {
	var reqs []*http.Request
	for _, op := range ops {
		if !op.update && op.success && len(reqs) < 2000 {
			reqs = append(reqs, httptest.NewRequest(http.MethodGet, op.req.target(s.docs), nil))
		}
	}
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range recs {
		recs[i] = httptest.NewRecorder()
	}
	h := s.srv.Handler()
	a0, _ := allocs()
	for i, r := range reqs {
		h.ServeHTTP(recs[i], r)
	}
	a1, _ := allocs()
	for _, rr := range recs {
		if rr.Code != http.StatusOK {
			rep.problem("direct handler call answered %d", rr.Code)
			break
		}
	}
	rep.layer["serve.allocs_per_req"] = ratio(float64(a1-a0), float64(len(reqs)))
}

// parseReplay parses texts one at a time, repeating until there are
// minTailSamples timings, and reports query.parse metrics. It returns the
// first round's parsed queries and their parse times.
func parseReplay(rep *report, texts []string) ([]*query.Query, []time.Duration, error) {
	qs := make([]*query.Query, len(texts))
	durs := make([]time.Duration, len(texts))
	var samples []float64
	var a0, a1 uint64
	for round := 0; round < maxReplayRounds && (round == 0 || len(samples) < minTailSamples); round++ {
		if round == 0 {
			a0, _ = allocs()
		}
		for i, text := range texts {
			t0 := time.Now()
			q, err := query.Parse(text)
			dt := time.Since(t0)
			if err != nil {
				return nil, nil, fmt.Errorf("replay parse %q: %w", text, err)
			}
			samples = append(samples, dt.Seconds())
			if round == 0 {
				qs[i], durs[i] = q, dt
			}
		}
		if round == 0 {
			a1, _ = allocs()
		}
	}
	rep.layer["query.parse_p50_us"] = 1e6 * summarize(samples).P50
	rep.layer["query.parse_allocs_per_call"] = ratio(float64(a1-a0), float64(len(texts)))
	return qs, durs, nil
}

// evalReplay times fn over every index, repeating (with freshly parsed
// queries, as the server has) until there are minTailSamples timings. It
// returns all timings, the first round's per-index durations and the first
// round's allocations and bytes per call.
func evalReplay(n int, fn func(i int, fresh bool)) (samples []float64, first []time.Duration, allocsPer, bytesPer float64) {
	first = make([]time.Duration, n)
	for round := 0; round < maxReplayRounds && (round == 0 || len(samples) < minTailSamples); round++ {
		a0, b0 := allocs()
		for i := 0; i < n; i++ {
			t0 := time.Now()
			fn(i, round > 0)
			dt := time.Since(t0)
			samples = append(samples, dt.Seconds())
			if round == 0 {
				first[i] = dt
			}
		}
		if round == 0 {
			a1, b1 := allocs()
			allocsPer, bytesPer = ratio(float64(a1-a0), float64(n)), ratio(float64(b1-b0), float64(n))
		}
	}
	return samples, first, allocsPer, bytesPer
}

// replayStatic replays the traced static-read requests: query.Parse, then
// eval.ApproxContext (batch or top-k) or eval.ExactOpts on the synopsis or
// index the server used.
func replayStatic(rep *report, s *served, ops []tracedOp, rec *recorder) error {
	var byMode [3][]tracedOp
	for _, op := range ops {
		if op.success {
			byMode[op.req.mode] = append(byMode[op.req.mode], op)
		}
	}
	reg := obs.NewRegistry()
	ctx := context.Background()
	var all []tracedOp
	for _, m := range byMode {
		all = append(all, m...)
	}
	texts := make([]string, len(all))
	for i, op := range all {
		texts[i] = s.docs[op.req.doc].queries[op.req.query]
	}
	qs, parseDurs, err := parseReplay(rep, texts)
	if err != nil {
		return err
	}
	evalDurs := make([]time.Duration, len(all))
	at := 0
	for m, mops := range byMode {
		base := at
		samples, first, allocsPer, bytesPer := evalReplay(len(mops), func(i int, fresh bool) {
			op := mops[i]
			q := qs[base+i]
			if fresh {
				q = query.MustParse(texts[base+i])
			}
			switch mode(m) {
			case modeApprox:
				eval.ApproxContext(ctx, s.sketches[op.req.doc], q, eval.Options{Metrics: reg})
			case modeTopK:
				eval.ApproxContext(ctx, s.sketches[op.req.doc], q, eval.Options{Limit: topK, Metrics: reg})
			case modeExact:
				eval.ExactOpts(ctx, s.indexes[op.req.doc], q, eval.ExactOptions{})
			}
		})
		copy(evalDurs[base:], first)
		at += len(mops)
		switch mode(m) {
		case modeApprox:
			rep.timing(rep.layer, "eval.approx", samples, true)
			rep.layer["eval.approx_allocs_per_call"] = allocsPer
			rep.layer["eval.approx_bytes_per_call"] = bytesPer
			evalCounters(rep, reg.Snapshot())
		case modeTopK:
			rep.timing(rep.layer, "eval.topk", samples, false)
		case modeExact:
			rep.timing(rep.layer, "eval.exact", samples, true)
			rep.layer["eval.exact_allocs_per_call"] = allocsPer
		}
	}
	for i, op := range all {
		rec.addReplayed(op.id, "serve.handle", []string{"query.parse", "eval." + op.req.mode.String()},
			[]time.Duration{parseDurs[i], evalDurs[i]})
	}
	handleLayers(rep, rec)
	return nil
}

// evalCounters reports the embeddings each approximate evaluation
// enumerated, from a registry only the replay's eval calls report to.
func evalCounters(rep *report, snap obs.Snapshot) {
	rep.layer["eval.embeddings_per_query"] = ratio(float64(snap.Counters["eval.approx.embeddings"]), float64(snap.Counters["eval.approx.queries"]))
}

// handleLayers reports the handler's own time: its span, and its self time
// against the replayed child calls.
func handleLayers(rep *report, rec *recorder) {
	spans := rec.snapshot()
	rep.timing(rep.layer, "serve.handle", durations(spans, "serve.handle"), true)
	rep.layer["serve.self_p50_ms"] = 1000 * summarize(selfTimes(spans, "serve.handle")).P50
}

// replayLive replays the traced live-mixed operations against fresh stacks
// built from the same XML bytes. Fresh mirrors regenerate the update
// scripts: before each traced slice, every stack takes, untimed, the
// scripted updates that the warm-up and the untraced slices sent; then the
// slice's traced operations run in the order the clients started them.
// Compactions run inline (tier.Options.Synchronous), so an absorb that
// triggers one is timed as a compaction rather than an absorb.
func replayLive(rep *report, s *served, seed int64, tr loopResult, rec *recorder) error {
	reg := obs.NewRegistry()
	stacks := make([]*tier.Stack, len(s.docs))
	mirrors := make([]*mirror, len(s.docs))
	for i, d := range s.docs {
		doc, err := xmltree.Parse(bytes.NewReader(d.xml))
		if err != nil {
			return err
		}
		if stacks[i], err = tier.New(doc, tier.Options{BudgetBytes: serveBudget, Synchronous: true, Metrics: reg}); err != nil {
			return err
		}
		mirrors[i] = newMirror(d, seed, i)
	}
	ctx := context.Background()
	var absorbs, compactions, tierEst, baseEst, deltaSelf, parses []float64
	var absorbAllocs uint64
	var bases []*query.Query
	var baseSketches []int
	for k, start := range tr.starts {
		for i, m := range mirrors {
			for m.sent < start.sent[i] {
				if _, _, err := applyUpdate(stacks[i], m.next()); err != nil {
					return fmt.Errorf("replay catch-up: %w", err)
				}
			}
		}
		end := len(tr.traced)
		if k+1 < len(tr.starts) {
			end = tr.starts[k+1].at
		}
		ops := append([]tracedOp(nil), tr.traced[start.at:end]...)
		sort.Slice(ops, func(i, j int) bool { return ops[i].start.Before(ops[j].start) })
		for _, op := range ops {
			st := stacks[op.req.doc]
			if op.update {
				// A traced update is its document's next scripted one.
				if !bytes.Equal(mirrors[op.req.doc].next().body, op.op.body) {
					return fmt.Errorf("replay: the %s update script diverged from the run's", s.docs[op.req.doc].name)
				}
				if !op.success {
					continue
				}
				epoch := st.View().Epoch
				a0, _ := allocs()
				parseDur, dt, err := applyUpdate(st, op.op)
				a1, _ := allocs()
				if err != nil {
					rep.problem("replay: %v", err)
					continue
				}
				if st.View().Epoch != epoch {
					compactions = append(compactions, dt.Seconds())
				} else {
					absorbs = append(absorbs, dt.Seconds())
					absorbAllocs += a1 - a0
				}
				rec.addReplayed(op.id, "serve.handle", []string{"xmltree.compact", "tier.absorb"}, []time.Duration{parseDur, dt})
				continue
			}
			if !op.success {
				continue
			}
			text := s.docs[op.req.doc].queries[op.req.query]
			t0 := time.Now()
			q, err := query.Parse(text)
			parseDur := time.Since(t0)
			if err != nil {
				return err
			}
			v := st.View()
			t1 := time.Now()
			st.EstimateContext(ctx, q, eval.Options{Metrics: reg})
			tierDur := time.Since(t1)
			t2 := time.Now()
			eval.ApproxContext(ctx, v.Base, q, eval.Options{Metrics: reg})
			baseDur := time.Since(t2)
			parses = append(parses, parseDur.Seconds())
			tierEst = append(tierEst, tierDur.Seconds())
			baseEst = append(baseEst, baseDur.Seconds())
			deltaSelf = append(deltaSelf, (tierDur - baseDur).Seconds())
			bases = append(bases, q)
			baseSketches = append(baseSketches, op.req.doc)
			rec.addReplayed(op.id, "serve.handle", []string{"query.parse", "tier.estimate"}, []time.Duration{parseDur, tierDur})
		}
	}
	rep.timing(rep.layer, "tier.absorb", absorbs, true)
	rep.layer["tier.absorb_allocs_per_op"] = ratio(float64(absorbAllocs), float64(len(absorbs)))
	rep.layer["tier.compaction_p50_s"] = summarize(compactions).P50
	rep.timing(rep.layer, "tier.estimate", tierEst, true)
	rep.layer["tier.delta_self_p50_ms"] = 1000 * summarize(deltaSelf).P50
	rep.timing(rep.layer, "eval.approx", baseEst, true)
	rep.layer["query.parse_p50_us"] = 1e6 * summarize(parses).P50
	evalCounters(rep, reg.Snapshot())

	// Allocation counts come from a batch over the final bases, since a
	// stop-the-world read around every estimate would dominate it.
	a0, b0 := allocs()
	for i, q := range bases {
		eval.ApproxContext(ctx, stacks[baseSketches[i]].View().Base, q, eval.Options{Metrics: reg})
	}
	a1, b1 := allocs()
	rep.layer["eval.approx_allocs_per_call"] = ratio(float64(a1-a0), float64(len(bases)))
	rep.layer["eval.approx_bytes_per_call"] = ratio(float64(b1-b0), float64(len(bases)))
	a0, _ = allocs()
	for _, text := range s.docs[0].queries {
		query.MustParse(text)
	}
	a1, _ = allocs()
	rep.layer["query.parse_allocs_per_call"] = ratio(float64(a1-a0), float64(len(s.docs[0].queries)))
	handleLayers(rep, rec)
	return nil
}

// applyUpdate applies one scripted update to st directly: the subtree
// parse the server does (xmltree.BuildCompact), then Stack.Insert or
// Stack.Delete. It returns how long each took.
func applyUpdate(st *tier.Stack, op updateOp) (parse, absorb time.Duration, err error) {
	var b updateBody
	if err := json.Unmarshal(op.body, &b); err != nil {
		return 0, 0, err
	}
	if b.Op == "delete" {
		t0 := time.Now()
		err := st.Delete(b.OID)
		return 0, time.Since(t0), err
	}
	t0 := time.Now()
	proto, err := xmltree.BuildCompact(b.Subtree)
	parse = time.Since(t0)
	if err != nil {
		return parse, 0, err
	}
	t1 := time.Now()
	_, err = st.Insert(b.ParentOID, proto)
	return parse, time.Since(t1), err
}

// layerSetup times the build path of the serving corpus layer by layer,
// calling xmltree.Parse, stable.Build and tsbuild.Build directly (a live
// setup reaches the last two only through tier.New).
func layerSetup(rep *report, docs []*document) error {
	var parse, stab, ts float64
	var elems, xmlBytes, merges, pairEvals int
	var tsAllocs uint64
	for _, d := range docs {
		t0 := time.Now()
		doc, err := xmltree.Parse(bytes.NewReader(d.xml))
		if err != nil {
			return err
		}
		t1 := time.Now()
		syn := stable.Build(doc)
		t2 := time.Now()
		a0, _ := allocs()
		t3 := time.Now()
		_, stats := tsbuild.Build(syn, tsbuild.Options{BudgetBytes: serveBudget, Metrics: obs.NewRegistry()})
		t4 := time.Now()
		a1, _ := allocs()
		parse += t1.Sub(t0).Seconds()
		stab += t2.Sub(t1).Seconds()
		ts += t4.Sub(t3).Seconds()
		elems += doc.Size()
		xmlBytes += len(d.xml)
		merges += stats.Merges
		pairEvals += stats.PairEvals
		tsAllocs += a1 - a0
	}
	buildLayers(rep, buildLayerTimes{
		parse: parse, stable: stab, tsbuild: ts, elems: elems, xmlBytes: xmlBytes,
		merges: merges, pairEvals: pairEvals, tsAllocs: tsAllocs, builds: 1,
	})
	return nil
}
