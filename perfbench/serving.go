package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"treesketch/internal/eval"
	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/serve"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/tier"
	"treesketch/internal/tsbuild"
	"treesketch/internal/xmltree"
)

// Serving workload sizes, taken from tsbench's QuickConfig
// (internal/bench): documents of 15k elements served at its largest grid
// budget, 9 KB. Each document has a pool of servePool distinct queries
// (3 x servePool exceeds eval's 64-entry mass-bound cache, so top-k
// requests both hit and miss it).
const (
	serveElems  = 15000
	servePool   = 150
	serveBudget = 9 << 10
	// setupRounds is how many times a run sets up from scratch; setup_s
	// is their median. The first round serves the run; measure spreads
	// the others over it.
	setupRounds = 15
	// slicesPerSetup is how many slices of the closed loop run between
	// two setup rounds. Each slice starts with a host probe, so the probe
	// samples the host at setupRounds x slicesPerSetup points of the run.
	slicesPerSetup = 4
	// staticClients is static-read's closed-loop connection count. The
	// clients share the server's process; on a two-CPU machine a second
	// reader saturates both CPUs and about triples the run-to-run spread of
	// the read latencies.
	staticClients = 1
	// liveClients is live-mixed's connection count, capped by the CPUs: one
	// client owns each document's updates, and two let an estimate overlap
	// an absorb.
	liveClients = 2
)

// setupCost is how much a setup built and how long the build took:
// parse, count-stable summary and TSBuild (tier.New for live stacks).
type setupCost struct {
	elems int
	build float64
}

// served is a running server over one generated corpus.
type served struct {
	docs     []*document
	reg      *obs.Registry
	srv      *serve.Server
	hs       *http.Server
	served   chan error
	base     string
	sketches []*sketch.Sketch
	indexes  []*eval.Index
	stacks   []*tier.Stack
	layers   setupCost
	seconds  float64
}

// startServing generates the corpus, builds every dataset from its XML
// bytes, starts the server on loopback and warms it with one approximate
// pass over each pool. Live datasets are tier stacks at the default
// compaction thresholds; static ones are frozen synopses with an exact
// index.
func startServing(live bool, rec *recorder) (*served, error) {
	t0 := time.Now()
	docs, err := genCorpus(serveElems, servePool, corpusSeed)
	if err != nil {
		return nil, err
	}
	s := &served{docs: docs, reg: obs.NewRegistry()}
	s.srv = serve.New(serve.Options{Metrics: s.reg})
	for _, d := range docs {
		b0 := time.Now()
		doc, err := xmltree.Parse(bytes.NewReader(d.xml))
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", d.name, err)
		}
		s.layers.elems += doc.Size()
		if live {
			st, err := tier.New(doc, tier.Options{BudgetBytes: serveBudget, Metrics: s.reg})
			if err != nil {
				return nil, fmt.Errorf("stack %s: %w", d.name, err)
			}
			s.layers.build += time.Since(b0).Seconds()
			s.stacks = append(s.stacks, st)
			s.srv.AddStack(d.name, st)
			continue
		}
		sk, _ := tsbuild.Build(stable.Build(doc), tsbuild.Options{BudgetBytes: serveBudget, Metrics: s.reg})
		s.layers.build += time.Since(b0).Seconds()
		ix := eval.NewIndex(doc)
		s.sketches = append(s.sketches, sk)
		s.indexes = append(s.indexes, ix)
		s.srv.AddSketch(d.name, sk)
		s.srv.AddIndex(d.name, ix)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = s.srv.Handler()
	if rec != nil {
		h = traceHandler(h, rec)
	}
	s.hs = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()

	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	c := &client{hc: hc, base: s.base}
	for di, d := range docs {
		for qi := range d.queries {
			r := estimateReq{doc: di, query: qi}
			c.estimate(r.target(docs), r, func(answer) bool { return true })
		}
	}
	if c.counts.failed > 0 {
		s.stop()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", c.counts.failed, c.counts.attempted)
	}
	s.seconds = time.Since(t0).Seconds()
	return s, nil
}

// stop shuts the HTTP server down and waits for it to exit.
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// setupLog collects a run's setup rounds: the first one, which serves the
// run, and the extra rounds measure interleaves with the loop.
type setupLog struct {
	times  []float64
	rounds []setupCost
	// again sets up once more from scratch and discards the result.
	again func() (setupCost, float64, error)
}

func (l *setupLog) add(c setupCost, seconds float64) {
	l.times = append(l.times, seconds)
	l.rounds = append(l.rounds, c)
}

// more runs one extra setup round if the run has not had setupRounds yet.
// Callers run it on a collected heap, so the garbage before it is not
// collected on its clock.
func (l *setupLog) more() error {
	if len(l.times) >= setupRounds {
		return nil
	}
	c, sec, err := l.again()
	if err != nil {
		return err
	}
	l.add(c, sec)
	return nil
}

// servingSetups sets up the serving corpus once for the run and returns it
// with a log whose extra rounds set up a second server and stop it.
func servingSetups(live bool, rec *recorder) (*served, *setupLog, error) {
	runtime.GC()
	s, err := startServing(live, rec)
	if err != nil {
		return nil, nil, err
	}
	l := &setupLog{again: func() (setupCost, float64, error) {
		x, err := startServing(live, nil)
		if err != nil {
			return setupCost{}, 0, err
		}
		return x.layers, x.seconds, x.stop()
	}}
	l.add(s.layers, s.seconds)
	return s, l, nil
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// loopResult is what the closed loop measured over one or more slices.
type loopResult struct {
	counts    tally
	estimates []float64
	updates   []float64
	overheads []float64
	depths    []float64
	// qps holds each slice's answered estimates per second.
	qps    []float64
	traced []tracedOp
	// starts are the live update-script positions at the start of each
	// traced slice, for the replay.
	starts   []sliceStart
	wall     float64
	gc       gcSample // GC and total CPU seconds and GC cycles in the loop
	retained float64  // live heap gained over the slices, bytes
}

// sliceStart is where a traced slice's operations begin in
// loopResult.traced and how many scripted updates each document had been
// sent by then.
type sliceStart struct {
	at   int
	sent []int
}

func (r loopResult) ops() int { return r.counts.attempted }

func (r *loopResult) merge(o loopResult) {
	r.counts.add(o.counts)
	r.estimates = append(r.estimates, o.estimates...)
	r.updates = append(r.updates, o.updates...)
	r.overheads = append(r.overheads, o.overheads...)
	r.depths = append(r.depths, o.depths...)
	r.qps = append(r.qps, o.qps...)
	r.traced = append(r.traced, o.traced...)
	r.wall += o.wall
	r.gc.add(o.gc)
}

// sampleBytes is the size of the result's own sample buffers, which are
// live when a slice's retained heap is read but are not the program's.
func (r loopResult) sampleBytes() float64 {
	n := cap(r.estimates) + cap(r.updates) + cap(r.overheads) + cap(r.depths) + cap(r.qps)
	return float64(8*n) + float64(cap(r.traced))*float64(unsafe.Sizeof(tracedOp{}))
}

// enough reports whether every timing stream that needs a p99 has
// minTailSamples samples.
func (r loopResult) enough(needUpdates bool) bool {
	return len(r.estimates) >= minTailSamples && (!needUpdates || len(r.updates) >= minTailSamples)
}

// measure runs the closed loop for the run's measured time d, in
// setupRounds x slicesPerSetup slices, each started by a host probe. After
// every slicesPerSetup slices it sets up the corpus once more, so setup_s
// is the median of setups spread over the whole run, not of a burst at its
// start that one slow host period can cover. In a traced run the
// slices alternate between traced and untraced, so both pools see the same
// heap growth and host periods. Each slice starts and ends on a collected
// heap (one collection between two slices serves both); retained counts
// only the slices' growth, not the extra setups' or the pools' own sample
// buffers.
// The loop runs past d (up to 3d, without more setups) until every timing
// stream that needs a p99 has minTailSamples samples. sent, when set,
// reads the live update scripts' positions between slices.
func measure(s *served, clients int, d time.Duration, rec *recorder, needUpdates bool,
	step func(*client, int), setups *setupLog, sent func() []int, hp *hostProbe) (untraced, traced loopResult, err error) {
	slice := d / (setupRounds * slicesPerSetup)
	var measured time.Duration
	h0 := liveHeap()
	for k := 0; ; k++ {
		done := untraced.enough(needUpdates) && (rec == nil || traced.enough(needUpdates))
		if measured >= 3*d || (measured >= d && done) {
			return untraced, traced, nil
		}
		into, r := &untraced, (*recorder)(nil)
		if rec != nil && k%2 == 0 {
			into, r = &traced, rec
			if sent != nil {
				traced.starts = append(traced.starts, sliceStart{at: len(traced.traced), sent: sent()})
			}
		}
		if err := hp.sample(); err != nil {
			return untraced, traced, err
		}
		lr := closedLoop(s, clients, slice, r, step)
		s.settle()
		held := into.sampleBytes()
		into.merge(lr)
		h1 := liveHeap()
		into.retained += float64(h1) - float64(h0) - (into.sampleBytes() - held)
		h0 = h1
		measured += slice
		if k%slicesPerSetup != slicesPerSetup-1 {
			continue
		}
		if err := setups.more(); err != nil {
			return untraced, traced, err
		}
		h0 = liveHeap()
	}
}

// settle waits until no live stack is compacting.
func (s *served) settle() {
	for _, st := range s.stacks {
		for st.Compacting() {
			time.Sleep(time.Millisecond)
		}
	}
}

// closedLoop runs n clients for d, each sending its next request only
// after the previous one completed. Every slice opens fresh connections, so
// a run samples many placements of the connections' goroutines rather than
// following one.
func closedLoop(s *served, n int, d time.Duration, rec *recorder, step func(c *client, i int)) loopResult {
	clients := make([]*client, n)
	g0 := readGC()
	start := time.Now()
	var wg sync.WaitGroup
	for i := range clients {
		c := &client{hc: newHTTPClient(1), base: s.base, rec: rec}
		clients[i] = c
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer c.hc.CloseIdleConnections()
			for time.Since(start) < d {
				step(c, i)
			}
		}(i)
	}
	wg.Wait()
	var r loopResult
	r.wall = time.Since(start).Seconds()
	r.gc = readGC().since(g0)
	for _, c := range clients {
		r.counts.add(c.counts)
		r.estimates = append(r.estimates, c.estimates...)
		r.updates = append(r.updates, c.updates...)
		r.overheads = append(r.overheads, c.overheads...)
		r.depths = append(r.depths, c.depths...)
		r.traced = append(r.traced, c.traced...)
	}
	r.qps = []float64{float64(len(r.estimates)) / r.wall}
	return r
}

// wants holds the in-process answer of every (document, query, mode).
type wants [][][3]answer

// expectedAnswers evaluates every pool query in-process, on the same
// synopses and options the server uses, for the per-request check.
func expectedAnswers(s *served) (wants, error) {
	reg := obs.NewRegistry()
	w := make(wants, len(s.docs))
	for di, d := range s.docs {
		w[di] = make([][3]answer, len(d.queries))
		for qi, text := range d.queries {
			q, err := query.Parse(text)
			if err != nil {
				return nil, fmt.Errorf("%s: parse %q: %w", d.name, text, err)
			}
			a := eval.ApproxContext(context.Background(), s.sketches[di], q, eval.Options{Metrics: reg})
			t := eval.ApproxContext(context.Background(), s.sketches[di], q, eval.Options{Limit: topK, Metrics: reg})
			ex := eval.Exact(s.indexes[di], q)
			if a.Canceled || t.Canceled || ex.Canceled || ex.Overflow {
				return nil, fmt.Errorf("%s: %q has no in-process answer", d.name, text)
			}
			w[di][qi] = [3]answer{
				modeApprox: {Selectivity: a.Selectivity(), ResultNodes: len(a.Nodes)},
				modeTopK:   {Selectivity: t.Selectivity(), ResultNodes: len(t.Nodes)},
				modeExact:  {Selectivity: ex.Tuples},
			}
		}
	}
	return w, nil
}

// targets renders every request target once, so the loop does no URL
// building.
func targets(docs []*document) [][][3]string {
	out := make([][][3]string, len(docs))
	for di, d := range docs {
		out[di] = make([][3]string, len(d.queries))
		for qi := range d.queries {
			for m := modeApprox; m <= modeExact; m++ {
				out[di][qi][m] = estimateReq{doc: di, query: qi, mode: m}.target(docs)
			}
		}
	}
	return out
}

// staticMRE is the paper's mean relative error of the served approximate
// answers against exact truth, with the sanity bound of Section 6.1 (the
// 10-percentile true count of each document's pool).
func staticMRE(w wants) float64 {
	var sum float64
	n := 0
	for _, doc := range w {
		truths := make([]float64, len(doc))
		for qi := range doc {
			truths[qi] = doc[qi][modeExact].Selectivity
		}
		sanity := max(1, quantileOf(truths, 0.1))
		for qi := range doc {
			sum += eval.RelativeError(doc[qi][modeExact].Selectivity, doc[qi][modeApprox].Selectivity, sanity)
			n++
		}
	}
	return 100 * ratio(sum, float64(n))
}
