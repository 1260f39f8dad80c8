package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"treesketch/internal/obs"
	"treesketch/internal/tier"
	"treesketch/internal/xmltree"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending: summarize must sort
	}
	return s
}

func TestQuantileRank(t *testing.T) {
	d := summarize(seq(1000))
	if d.P50 != 500 || d.P99 != 990 || d.Beyond != 10 || !d.tailMeasured() {
		t.Fatalf("1000 samples: got %+v, want p50 500, p99 990, 10 beyond", d)
	}
	// 999 samples leave only 9 beyond the nearest-rank p99.
	d = summarize(seq(999))
	if d.P99 != 990 || d.Beyond != 9 || d.tailMeasured() {
		t.Fatalf("999 samples: got %+v, want p99 990 with 9 beyond", d)
	}
	// Ties at the p99 value are not beyond it.
	s := seq(1000)
	for i := range s {
		if s[i] > 985 {
			s[i] = 985
		}
	}
	if d = summarize(s); d.P99 != 985 || d.Beyond != 0 {
		t.Fatalf("tied tail: got %+v, want p99 985 with 0 beyond", d)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Fatalf("single sample p99 = %v", got)
	}
	if d := summarize(nil); d.N != 0 || d.P50 != 0 || d.tailMeasured() {
		t.Fatalf("no samples: %+v", d)
	}
}

func TestSelfTimeNestedSpans(t *testing.T) {
	parent := span{Start: 0, End: 100e6}
	kids := []span{
		{Start: 10e6, End: 30e6},
		{Start: 20e6, End: 50e6},  // overlaps the first: counts once
		{Start: 90e6, End: 120e6}, // runs past the parent: clipped
		{Start: 150e6, End: 160e6},
	}
	if got, want := selfTime(parent, kids), 0.05; !near(got, want) {
		t.Fatalf("self time = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); !near(got, 0.1) {
		t.Fatalf("childless self time = %v, want the whole span", got)
	}

	// Replayed children are laid out from the parent's start and grouped
	// by request id.
	r := newRecorder()
	at := r.epoch
	r.add(1, "client.request", "", at, at.Add(10*time.Millisecond))
	r.add(1, "serve.handle", "client.request", at.Add(time.Millisecond), at.Add(9*time.Millisecond))
	r.add(2, "serve.handle", "client.request", at, at.Add(4*time.Millisecond))
	r.addReplayed(1, "serve.handle", []string{"query.parse", "eval.approx"}, []time.Duration{time.Millisecond, 2 * time.Millisecond})
	r.addReplayed(2, "serve.handle", []string{"query.parse", "eval.approx"}, []time.Duration{time.Millisecond, 5 * time.Millisecond})
	r.addReplayed(3, "serve.handle", []string{"query.parse"}, []time.Duration{time.Millisecond})
	spans := r.snapshot()
	if len(spans) != 7 {
		t.Fatalf("recorded %d spans, want 7 (request 3 has no handler span)", len(spans))
	}
	handles := selfTimes(spans, "serve.handle")
	if len(handles) != 2 || !near(handles[0], 0.005) || !near(handles[1], 0) {
		t.Fatalf("handler self times = %v, want [0.005 0]", handles)
	}
	if clients := selfTimes(spans, "client.request"); len(clients) != 1 || !near(clients[0], 0.002) {
		t.Fatalf("client self times = %v, want [0.002]", clients)
	}
}

func near(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }

func TestFailureAccounting(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/update" {
			fmt.Fprint(w, `{"oid":7,"elems":100,"seconds":0.001}`)
			return
		}
		switch r.URL.Query().Get("case") {
		case "ok":
			fmt.Fprint(w, `{"dataset":"d","selectivity":2.5,"result_nodes":3,"seconds":0.001}`)
		case "wrong":
			fmt.Fprint(w, `{"dataset":"d","selectivity":2.4,"result_nodes":3,"seconds":0.001}`)
		case "garbled":
			fmt.Fprint(w, `{"dataset":`)
		case "refused":
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer srv.Close()
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	c := &client{hc: hc, base: srv.URL}
	check := func(a answer) bool { return a.Dataset == "d" && a.Selectivity == 2.5 && a.ResultNodes == 3 }
	for _, cs := range []string{"ok", "wrong", "garbled", "refused"} {
		c.estimate("/?case="+cs, estimateReq{}, check)
	}
	c.update(0, updateOp{body: []byte(`{}`), wantOID: 7, wantElems: 100})
	c.update(0, updateOp{body: []byte(`{}`), wantOID: 8, wantElems: 100})
	bad := &client{hc: hc, base: "http://127.0.0.1:1"} // nothing listens
	bad.estimate("/", estimateReq{}, check)

	got := c.counts
	got.add(bad.counts)
	if want := (tally{attempted: 7, failed: 5, refused: 1}); got != want {
		t.Fatalf("tally = %+v, want %+v", got, want)
	}
	if len(c.estimates) != 1 || len(c.updates) != 1 {
		t.Fatalf("latencies kept for %d estimates and %d updates, want only the correct ones", len(c.estimates), len(c.updates))
	}

	// A failed output check after the run is one more failed operation.
	rep := newReport()
	rep.counts = got
	rep.problem("fingerprint mismatch")
	line, err := finish(rep, false)
	if err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Attempted != 8 || line.Failed != 6 || rep.e2e["failed_ratio"] != 0.75 {
		t.Fatalf("result line %+v, failed_ratio %v", line, rep.e2e["failed_ratio"])
	}
}

// streams renders the first n requests of every client, the first n
// updates of every document and the build pass order as bytes.
func streams(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	docs, err := genCorpus(600, 12, corpusSeed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for c := 0; c < 2; c++ {
		s := newStream(seed, c, docs)
		for i := 0; i < n; i++ {
			b.WriteString(s.nextRead().target(docs))
			r, upd := s.nextLive([]int{0, 1, 2})
			fmt.Fprintf(&b, " %v %s\n", upd, r.target(docs))
		}
	}
	for i, d := range docs {
		m := newMirror(d, seed, i)
		for k := 0; k < n; k++ {
			op := m.next()
			fmt.Fprintf(&b, "%s %d %d\n", op.body, op.wantOID, op.wantElems)
		}
	}
	fmt.Fprintln(&b, newPassOrder(seed, []int{12, 12, 12}))
	return b.Bytes()
}

func TestStreamsFollowSeed(t *testing.T) {
	a, b := streams(t, 42, 300), streams(t, 42, 300)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different request or update streams")
	}
	if bytes.Equal(a, streams(t, 43, 300)) {
		t.Fatal("a different seed gave the same streams")
	}
}

func TestMirrorMatchesServerDocument(t *testing.T) {
	docs, err := genCorpus(600, 12, corpusSeed)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.Parse(bytes.NewReader(docs[1].xml))
	if err != nil {
		t.Fatal(err)
	}
	st, err := tier.New(doc, tier.Options{Synchronous: true, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	m := newMirror(docs[1], 5, 1)
	for i := 0; i < 300; i++ {
		op := m.next()
		var b updateBody
		if err := json.Unmarshal(op.body, &b); err != nil {
			t.Fatal(err)
		}
		oid := b.OID
		if b.Op == "insert" {
			var proto *xmltree.Tree
			if proto, err = xmltree.BuildCompact(b.Subtree); err != nil {
				t.Fatal(err)
			}
			oid, err = st.Insert(b.ParentOID, proto)
		} else {
			err = st.Delete(b.OID)
		}
		if err != nil || oid != op.wantOID || st.View().Elems != op.wantElems {
			t.Fatalf("op %d %s: oid %d elems %d err %v, mirror predicted oid %d elems %d",
				i, op.body, oid, st.View().Elems, err, op.wantOID, op.wantElems)
		}
	}
	if err := m.sameDoc(st.Doc()); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's metric and
// workload names in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, m := range want {
			w = append(w, m.name+" "+m.unit)
		}
		if strings.Join(g, ",") != strings.Join(w, ",") {
			t.Errorf("%s:\nBENCHMARK.json %v\nprogram        %v", what, g, w)
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEnd)
	same("per_layer", cfg.PerLayer, perLayer)
	if len(cfg.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(cfg.Workloads), len(workloads))
	}
	for _, w := range cfg.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
}

func TestNormalize(t *testing.T) {
	hp, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	if err := hp.sample(); err != nil {
		t.Fatal(err)
	}
	if err := hp.close(); err != nil {
		t.Fatal(err)
	}
	if len(hp.total) != probesPerSample || hp.seconds() <= 0 {
		t.Fatalf("probe took %d samples, median %v s", len(hp.total), hp.seconds())
	}

	// A host whose probe runs at twice the reference time scales times
	// down and rates up by 2^probeElasticity; other metrics are left alone.
	hp.total = []float64{2 * probeRefSeconds, 2 * probeRefSeconds, 5 * probeRefSeconds}
	rep := newReport()
	rep.e2e["setup_s"] = 1
	rep.e2e["estimate_qps"] = 100
	rep.e2e["setup_heap_mb"] = 7
	normalize(rep, hp)
	slow := math.Pow(2, probeElasticity)
	if !near(rep.e2e["setup_s"], 1/slow) || !near(rep.e2e["estimate_qps"], 100*slow) || rep.e2e["setup_heap_mb"] != 7 {
		t.Fatalf("normalized: %v", rep.e2e)
	}
	if _, ok := rep.e2e["update_p50_ms"]; ok {
		t.Fatal("normalize added a metric the run did not measure")
	}
	if !near(rep.layer["host.probe_ms"], 2000*probeRefSeconds) {
		t.Fatalf("host.probe_ms = %v", rep.layer["host.probe_ms"])
	}
	notes := strings.Join(rep.notes, "\n")
	if !strings.Contains(notes, "raw.setup_s 1\n") || !strings.Contains(notes, "raw.estimate_qps 100") {
		t.Fatalf("raw figures not noted:\n%s", notes)
	}
}
