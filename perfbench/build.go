package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"treesketch/internal/eval"
	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/tsbuild"
	"treesketch/internal/xmltree"
)

// Build workload sizes: documents of 40k elements, the experiment suite's
// default -TX scale (tsexp -tx-scale), larger than the serving workloads',
// over QuickConfig's 3/6/9 KB budget grid.
const (
	buildElems = 40000
	buildPool  = 60
)

var buildBudgets = []int{3 << 10, 6 << 10, 9 << 10}

// buildLayerTimes is one pass's per-layer cost, summed over documents and
// budgets. builds is the number of TSBuild calls per document.
type buildLayerTimes struct {
	parse, stable, tsbuild, encode, decode float64
	elems, xmlBytes, merges, pairEvals     int
	sketchBytes, builds                    int
	tsAllocs                               uint64
}

// buildLayers reports the construction layers' metrics from one pass.
func buildLayers(rep *report, t buildLayerTimes) {
	rep.layer["xmltree.parse_s"] = t.parse
	rep.layer["xmltree.parse_mb_per_s"] = ratio(float64(t.xmlBytes)/1e6, t.parse)
	rep.layer["stable.build_s"] = t.stable
	rep.layer["stable.elems_per_s"] = ratio(float64(t.elems), t.stable)
	rep.layer["tsbuild.build_s"] = t.tsbuild
	rep.layer["tsbuild.merges"] = float64(t.merges)
	rep.layer["tsbuild.pair_evals"] = float64(t.pairEvals)
	rep.layer["tsbuild.allocs_per_elem"] = ratio(float64(t.tsAllocs), float64(t.elems*t.builds))
	rep.layer["sketch.encode_s"] = t.encode
	rep.layer["sketch.decode_s"] = t.decode
	rep.layer["sketch.bytes"] = float64(t.sketchBytes)
}

// buildCorpus is the build workload's input: documents, their parsed query
// pools, and exact truth for every query.
type buildCorpus struct {
	docs    []*document
	indexes []*eval.Index
	queries [][]*query.Query
	truths  [][]float64
	sanity  []float64
}

// setupBuild generates the corpus and computes the exact answers the
// accuracy check compares against (xmltree.Parse, eval.NewIndex and
// eval.Exact).
func setupBuild() (*buildCorpus, error) {
	docs, err := genCorpus(buildElems, buildPool, mix(corpusSeed, 300))
	if err != nil {
		return nil, err
	}
	c := &buildCorpus{docs: docs}
	for _, d := range docs {
		doc, err := xmltree.Parse(bytes.NewReader(d.xml))
		if err != nil {
			return nil, err
		}
		ix := eval.NewIndex(doc)
		var qs []*query.Query
		var truths []float64
		for _, text := range d.queries {
			q, err := query.Parse(text)
			if err != nil {
				return nil, err
			}
			ex := eval.Exact(ix, q)
			if ex.Overflow {
				return nil, fmt.Errorf("%s: %q overflows", d.name, text)
			}
			qs = append(qs, q)
			truths = append(truths, ex.Tuples)
		}
		c.indexes = append(c.indexes, ix)
		c.queries = append(c.queries, qs)
		c.truths = append(c.truths, truths)
		c.sanity = append(c.sanity, max(1, quantileOf(truths, 0.1)))
	}
	return c, nil
}

// passResult is what one build pass measured.
type passResult struct {
	seconds   float64 // construction time, checks and estimates excluded
	elems     int
	estimates []float64
	mre       float64
	layers    buildLayerTimes
	estAllocs uint64
	estBytes  uint64
}

// buildPass runs every document through xmltree.Parse, stable.Build,
// tsbuild.Build at each budget, Encode and Decode, and eval.NewIndex, then
// checks each decoded synopsis and estimates the pool on it. traced adds
// allocation reads around TSBuild and the estimate batches. Each document
// starts with a host probe, outside the pass's timed intervals.
func buildPass(rep *report, c *buildCorpus, ord passOrder, rec *recorder, reg *obs.Registry, hp *hostProbe) (passResult, error) {
	traced := rec != nil
	var p passResult
	var errSum float64
	nErr := 0
	ctx := context.Background()
	for _, di := range ord.docs {
		d := c.docs[di]
		if err := hp.sample(); err != nil {
			return p, err
		}
		req := rec.nextReq()
		t0 := time.Now()
		doc, err := xmltree.Parse(bytes.NewReader(d.xml))
		if err != nil {
			return p, err
		}
		t1 := time.Now()
		syn := stable.Build(doc)
		t2 := time.Now()
		if traced {
			rec.add(req, "xmltree.parse", "", t0, t1)
			rec.add(req, "stable.build", "", t1, t2)
		}
		p.layers.parse += t1.Sub(t0).Seconds()
		p.layers.stable += t2.Sub(t1).Seconds()
		p.elems += doc.Size()
		p.layers.elems += doc.Size()
		p.layers.xmlBytes += len(d.xml)
		for _, bi := range ord.budgets {
			budget := buildBudgets[bi]
			var a0 uint64
			if traced {
				a0, _ = allocs()
			}
			b0 := time.Now()
			sk, stats := tsbuild.Build(syn, tsbuild.Options{BudgetBytes: budget, Metrics: reg})
			b1 := time.Now()
			if traced {
				a1, _ := allocs()
				p.layers.tsAllocs += a1 - a0
			}
			var buf bytes.Buffer
			b2 := time.Now()
			err := sk.Encode(&buf)
			b3 := time.Now()
			p.layers.sketchBytes += buf.Len()
			dec, derr := sketch.Decode(&buf)
			b4 := time.Now()
			p.layers.tsbuild += b1.Sub(b0).Seconds()
			p.layers.encode += b3.Sub(b2).Seconds()
			p.layers.decode += b4.Sub(b3).Seconds()
			p.layers.merges += stats.Merges
			p.layers.pairEvals += stats.PairEvals
			p.seconds += b1.Sub(b0).Seconds() + b4.Sub(b2).Seconds()
			if traced {
				rec.add(req, "tsbuild.build", "", b0, b1)
				rec.add(req, "sketch.encode", "", b2, b3)
				rec.add(req, "sketch.decode", "", b3, b4)
			}

			rep.counts.attempted++
			switch {
			case err != nil || derr != nil:
				rep.counts.failed++
				rep.problem("%s at %d bytes: encode/decode: %v %v", d.name, budget, err, derr)
				continue
			case dec.Fingerprint() != sk.Fingerprint():
				rep.counts.failed++
				rep.problem("%s at %d bytes: decoded fingerprint %016x != built %016x", d.name, budget, dec.Fingerprint(), sk.Fingerprint())
				continue
			case stats.FinalBytes > budget || dec.SizeBytes() > budget:
				rep.counts.failed++
				rep.problem("%s: synopsis of %d bytes exceeds its %d-byte budget", d.name, dec.SizeBytes(), budget)
				continue
			}
			var e0, eb0 uint64
			if traced {
				e0, eb0 = allocs()
			}
			for _, qi := range ord.queries[di] {
				q := c.queries[di][qi]
				q0 := time.Now()
				res := eval.ApproxContext(ctx, dec, q, eval.Options{Metrics: reg})
				q1 := time.Now()
				p.estimates = append(p.estimates, q1.Sub(q0).Seconds())
				if traced {
					rec.add(req, "eval.approx", "", q0, q1)
				}
				rep.counts.attempted++
				if res.Canceled {
					rep.counts.failed++
					continue
				}
				errSum += eval.RelativeError(c.truths[di][qi], res.Selectivity(), c.sanity[di])
				nErr++
			}
			if traced {
				e1, eb1 := allocs()
				p.estAllocs += e1 - e0
				p.estBytes += eb1 - eb0
			}
		}
		i0 := time.Now()
		eval.NewIndex(doc)
		i1 := time.Now()
		p.seconds += t2.Sub(t0).Seconds() + i1.Sub(i0).Seconds()
		if traced {
			rec.add(req, "eval.index", "", i0, i1)
		}
	}
	p.layers.builds = len(buildBudgets)
	p.mre = 100 * ratio(errSum, float64(nErr))
	return p, nil
}

// passOrder is the order in which a build pass visits the documents, the
// budgets and each pool's queries. The workload seed draws it; the
// documents and pools come from the fixed corpus seed. Every pass of a run
// uses the same order, so every pass's error sums identically.
type passOrder struct {
	docs, budgets []int
	queries       [][]int
}

// newPassOrder draws the order for documents whose pools have the given
// sizes.
func newPassOrder(seed int64, pools []int) passOrder {
	rng := rand.New(rand.NewSource(mix(seed, 400)))
	o := passOrder{docs: rng.Perm(len(pools)), budgets: rng.Perm(len(buildBudgets))}
	for _, n := range pools {
		o.queries = append(o.queries, rng.Perm(n))
	}
	return o
}

// runBuild is the build workload: an offline, single-process run of the
// construction pipeline over a budget grid. Like the serving workloads'
// slices, passes alternate between traced and untraced in a traced run,
// each starts on a collected heap, and extra setup rounds are spread over
// the passes.
func runBuild(seed int64, d time.Duration, traced bool, hp *hostProbe) (*report, error) {
	rep := newReport()
	runtime.GC()
	t0 := time.Now()
	c, err := setupBuild()
	if err != nil {
		return nil, err
	}
	setups := &setupLog{again: func() (setupCost, float64, error) {
		t0 := time.Now()
		_, err := setupBuild()
		return setupCost{}, time.Since(t0).Seconds(), err
	}}
	setups.add(setupCost{}, time.Since(t0).Seconds())
	rep.e2e["setup_heap_mb"] = float64(liveHeap()) / 1e6

	var pools []int
	for _, qs := range c.queries {
		pools = append(pools, len(qs))
	}
	ord := newPassOrder(seed, pools)
	var rec *recorder
	if traced {
		rec = newRecorder()
		rep.spans = rec
	}
	tracedReg, untracedReg := obs.NewRegistry(), obs.NewRegistry()
	var untraced, tracedPasses []passResult
	var gc gcSample
	var retained float64
	var measured time.Duration
	ops, nEst, nTracedEst := 0, 0, 0
	h0 := liveHeap()
	for k := 0; ; k++ {
		// Both pools get at least one pass, however slow a pass is.
		some := len(untraced) > 0 && (!traced || len(tracedPasses) > 0)
		done := nEst >= minTailSamples && len(untraced) >= 3 &&
			(!traced || (nTracedEst >= minTailSamples && len(tracedPasses) >= 3))
		if (measured >= 3*d && some) || (measured >= d && done) {
			break
		}
		tr := traced && k%2 == 0
		ops0 := rep.counts.attempted
		g0 := readGC()
		p0 := time.Now()
		var p passResult
		if tr {
			p, err = buildPass(rep, c, ord, rec, tracedReg, hp)
		} else {
			p, err = buildPass(rep, c, ord, nil, untracedReg, hp)
		}
		measured += time.Since(p0)
		if err != nil {
			return nil, err
		}
		g1 := readGC()
		h1 := liveHeap()
		if tr {
			tracedPasses = append(tracedPasses, p)
			nTracedEst += len(p.estimates)
		} else {
			gc.add(g1.since(g0))
			untraced = append(untraced, p)
			nEst += len(p.estimates)
			ops += rep.counts.attempted - ops0
			retained += float64(h1) - float64(h0) - float64(8*cap(p.estimates))
		}
		h0 = h1
		for len(setups.times) < setupRounds &&
			float64(len(setups.times)) < 1+float64(setupRounds-1)*measured.Seconds()/d.Seconds() {
			if err := setups.more(); err != nil {
				return nil, err
			}
			h0 = liveHeap()
		}
	}
	rep.e2e["setup_s"] = median(setups.times)

	var rates, qps, ests []float64
	for _, p := range untraced {
		rates = append(rates, float64(p.elems)/p.seconds)
		ests = append(ests, p.estimates...)
		var estTime float64
		for _, e := range p.estimates {
			estTime += e
		}
		qps = append(qps, float64(len(p.estimates))/estTime)
	}
	rep.e2e["build_elems_per_s"] = median(rates)
	rep.e2e["estimate_p95_ms"] = 1000 * rep.timing(rep.e2e, "estimate", ests, true).P95
	rep.e2e["estimate_qps"] = median(qps)
	rep.e2e["sel_mre_pct"] = untraced[0].mre
	for _, p := range append(untraced[1:], tracedPasses...) {
		if p.mre != untraced[0].mre {
			rep.problem("pass MRE %v != first pass %v: construction is not deterministic", p.mre, untraced[0].mre)
		}
	}
	rep.e2e["retained_heap_bytes_per_op"] = retained / float64(ops)
	if !traced {
		return rep, nil
	}

	rep.layer["runtime.retained_heap_bytes_per_op"] = rep.e2e["retained_heap_bytes_per_op"]
	rep.layer["runtime.gc_cpu_fraction"] = gc.fraction()
	rep.layer["runtime.gc_cycles_per_kop"] = float64(gc.cycles) / (float64(ops) / 1000)
	var layers []buildLayerTimes
	var tracedRates, tracedEsts []float64
	var estAllocs, estBytes uint64
	for _, p := range tracedPasses {
		layers = append(layers, p.layers)
		tracedRates = append(tracedRates, float64(p.elems)/p.seconds)
		tracedEsts = append(tracedEsts, p.estimates...)
		estAllocs += p.estAllocs
		estBytes += p.estBytes
	}
	buildLayers(rep, medianLayers(layers))
	rep.timing(rep.layer, "eval.approx", tracedEsts, true)
	rep.layer["eval.approx_allocs_per_call"] = ratio(float64(estAllocs), float64(len(tracedEsts)))
	rep.layer["eval.approx_bytes_per_call"] = ratio(float64(estBytes), float64(len(tracedEsts)))
	evalCounters(rep, tracedReg.Snapshot())
	evalCacheRatios(rep, obs.Snapshot{}, tracedReg.Snapshot())
	rep.layer["trace.overhead_pct"] = 100 * (1 - median(tracedRates)/rep.e2e["build_elems_per_s"])

	// The oracle's exact evaluations and the pool's parses, replayed.
	var texts []string
	var ixs []*eval.Index
	for di, doc := range c.docs {
		texts = append(texts, doc.queries...)
		for range doc.queries {
			ixs = append(ixs, c.indexes[di])
		}
	}
	qs, _, err := parseReplay(rep, texts)
	if err != nil {
		return nil, err
	}
	samples, _, exactAllocs, _ := evalReplay(len(qs), func(i int, _ bool) {
		eval.ExactOpts(context.Background(), ixs[i], qs[i], eval.ExactOptions{})
	})
	rep.timing(rep.layer, "eval.exact", samples, true)
	rep.layer["eval.exact_allocs_per_call"] = exactAllocs
	return rep, nil
}

// medianLayers takes each layer time's median over passes; counts are
// deterministic and come from the first pass.
func medianLayers(ls []buildLayerTimes) buildLayerTimes {
	pick := func(f func(buildLayerTimes) float64) float64 {
		var v []float64
		for _, l := range ls {
			v = append(v, f(l))
		}
		return median(v)
	}
	m := ls[0]
	m.parse = pick(func(l buildLayerTimes) float64 { return l.parse })
	m.stable = pick(func(l buildLayerTimes) float64 { return l.stable })
	m.tsbuild = pick(func(l buildLayerTimes) float64 { return l.tsbuild })
	m.encode = pick(func(l buildLayerTimes) float64 { return l.encode })
	m.decode = pick(func(l buildLayerTimes) float64 { return l.decode })
	return m
}
