package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"treesketch/internal/obs"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/tier"
	"treesketch/internal/xmltree"
)

// newLiveServer builds a Server publishing one live dataset backed by a tier
// stack over a small compact-syntax document.
func newLiveServer(t *testing.T, doc string, topts tier.Options) (*Server, *tier.Stack) {
	t.Helper()
	reg := obs.NewRegistry()
	if topts.BudgetBytes == 0 {
		topts.BudgetBytes = 4096
	}
	topts.Metrics = reg
	stk, err := tier.New(xmltree.MustCompact(doc), topts)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Metrics: reg})
	s.AddStack("live", stk)
	return s, stk
}

// postUpdate sends req to ts and decodes the response body into out (a
// *UpdateResponse or *errorResponse), returning the status code.
func postUpdate(t *testing.T, ts *httptest.Server, req UpdateRequest, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func estimate(t *testing.T, ts *httptest.Server, q string) EstimateResponse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/estimate?q=" + urlQueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("estimate %s: status %d", q, resp.StatusCode)
	}
	var er EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	return er
}

func TestUpdateEndToEnd(t *testing.T) {
	s, stk := newLiveServer(t, "r(a(b),a(b))", tier.Options{Synchronous: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if got := estimate(t, ts, "//a/b"); got.Selectivity != 2 {
		t.Fatalf("baseline //a/b selectivity %v, want 2", got.Selectivity)
	}

	// Insert a(b) under the root: //a/b goes 2 -> 3, served from base+delta.
	var ur UpdateResponse
	if code := postUpdate(t, ts, UpdateRequest{Op: "insert", ParentOID: stk.Doc().Root.OID, Subtree: "a(b)"}, &ur); code != 200 {
		t.Fatalf("insert status %d (%+v)", code, ur)
	}
	if ur.Dataset != "live" || ur.Op != "insert" || ur.OID == 0 {
		t.Errorf("insert response %+v", ur)
	}
	if ur.Elems != 7 || ur.DeltaElems != 2 || ur.Tiers == 0 {
		t.Errorf("insert response shape %+v, want elems 7, delta 2, tiers > 0", ur)
	}
	if ur.TraceID == "" || ur.Seconds <= 0 {
		t.Errorf("insert trace/seconds %+v", ur)
	}

	er := estimate(t, ts, "//a/b")
	if er.Selectivity != 3 {
		t.Errorf("post-insert //a/b selectivity %v, want 3", er.Selectivity)
	}
	if er.Tier == nil {
		t.Fatal("live estimate has no tier block")
	}
	if er.Tier.BaseSelectivity != 2 || er.Tier.Delta != 1 || er.Tier.DeltaElems != 2 {
		t.Errorf("tier block %+v, want base 2 delta 1 delta_elems 2", er.Tier)
	}

	// Delete the inserted subtree: back to the baseline answer.
	if code := postUpdate(t, ts, UpdateRequest{Op: "delete", OID: ur.OID}, &ur); code != 200 {
		t.Fatalf("delete status %d", code)
	}
	if ur.Op != "delete" || ur.Elems != 5 || ur.DeltaElems != 0 {
		t.Errorf("delete response %+v, want elems 5, delta 0", ur)
	}
	if got := estimate(t, ts, "//a/b").Selectivity; got != 2 {
		t.Errorf("post-delete //a/b selectivity %v, want 2", got)
	}

	snap := s.Registry().Snapshot()
	if snap.Counters["serve.http.updates"] != 2 {
		t.Errorf("updates counter = %d, want 2", snap.Counters["serve.http.updates"])
	}
	if snap.Counters["tier.absorbs"] != 2 {
		t.Errorf("tier.absorbs = %d, want 2", snap.Counters["tier.absorbs"])
	}
}

func TestUpdateXMLSubtree(t *testing.T) {
	s, stk := newLiveServer(t, "r(a(b))", tier.Options{Synchronous: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ur UpdateResponse
	req := UpdateRequest{Op: "insert", ParentOID: stk.Doc().Root.OID, Subtree: "<a><b/><b/></a>"}
	if code := postUpdate(t, ts, req, &ur); code != 200 {
		t.Fatalf("XML insert status %d", code)
	}
	if got := estimate(t, ts, "//a/b").Selectivity; got != 3 {
		t.Errorf("//a/b selectivity %v after XML insert, want 3", got)
	}
}

func TestUpdateErrors(t *testing.T) {
	s, stk := newLiveServer(t, "r(a(b))", tier.Options{Synchronous: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Non-POST methods are refused outright.
	resp, err := ts.Client().Get(ts.URL + "/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /update: status %d, want 405", resp.StatusCode)
	}

	check := func(req UpdateRequest, wantStatus int, wantCode string) {
		t.Helper()
		var er errorResponse
		if code := postUpdate(t, ts, req, &er); code != wantStatus || er.Code != wantCode {
			t.Errorf("%+v: status %d code %q, want %d %q", req, code, er.Code, wantStatus, wantCode)
		}
	}
	check(UpdateRequest{Op: "rename"}, 400, "bad_op")
	check(UpdateRequest{Op: "insert", Dataset: "nope", ParentOID: 0, Subtree: "a"}, 404, "unknown_dataset")
	check(UpdateRequest{Op: "insert", ParentOID: 1 << 30, Subtree: "a"}, 422, "update_rejected")
	check(UpdateRequest{Op: "insert", ParentOID: stk.Doc().Root.OID, Subtree: "a(("}, 400, "parse_error")
	check(UpdateRequest{Op: "delete", OID: stk.Doc().Root.OID}, 422, "update_rejected")
	check(UpdateRequest{Op: "delete", OID: 1 << 30}, 422, "update_rejected")

	// Malformed JSON body.
	resp, err = ts.Client().Post(ts.URL+"/update", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	// None of the rejected updates touched the document.
	if stk.Doc().Size() != 3 {
		t.Errorf("document size %d after rejected updates, want 3", stk.Doc().Size())
	}
}

// TestUpdateReplicationBombRejected checks that a compact subtree whose
// replication count is far past the node bound is an ordinary 400: the
// server must refuse it before allocating anything and keep serving.
func TestUpdateReplicationBombRejected(t *testing.T) {
	s, stk := newLiveServer(t, "r(a(b))", tier.Options{Synchronous: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var er errorResponse
	req := UpdateRequest{Op: "insert", ParentOID: stk.Doc().Root.OID, Subtree: "x*9999999999"}
	if code := postUpdate(t, ts, req, &er); code != http.StatusBadRequest || er.Code != "parse_error" {
		t.Fatalf("replication bomb: status %d code %q, want 400 parse_error", code, er.Code)
	}
	if got := estimate(t, ts, "//a/b").Selectivity; got != 1 {
		t.Errorf("//a/b selectivity %v after rejected bomb, want 1", got)
	}
	if stk.Doc().Size() != 3 {
		t.Errorf("document size %d after rejected bomb, want 3", stk.Doc().Size())
	}
}

func TestUpdateDuringCompactionDoesNotBlockEstimates(t *testing.T) {
	// Thresholds low enough that the insert below trips a background
	// compaction, with the build phase stretched so the follow-up estimate
	// provably overlaps it.
	const delay = 250 * time.Millisecond
	s, stk := newLiveServer(t, "r(a(b),a(b),c(d))", tier.Options{
		MinCompactElems: 1,
		CompactFraction: 0.01,
		CompactDelay:    delay,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ur UpdateResponse
	req := UpdateRequest{Op: "insert", ParentOID: stk.Doc().Root.OID, Subtree: "a(b)"}
	if code := postUpdate(t, ts, req, &ur); code != 200 {
		t.Fatalf("insert status %d", code)
	}
	if !ur.Compacting {
		t.Fatal("insert did not report the in-flight compaction it triggered")
	}

	begin := time.Now()
	er := estimate(t, ts, "//a/b")
	took := time.Since(begin)
	if er.Tier == nil || !er.Tier.Compacting {
		t.Fatalf("estimate during compaction: tier block %+v, want compacting", er.Tier)
	}
	if er.Selectivity != 3 {
		t.Errorf("estimate during compaction: selectivity %v, want 3", er.Selectivity)
	}
	if took > delay/2 {
		t.Errorf("estimate took %v during a %v compaction; the query path blocked", took, delay)
	}
	stk.Compact()
	if got := estimate(t, ts, "//a/b"); got.Selectivity != 3 || got.Tier.Tiers != 0 {
		t.Errorf("post-compaction estimate %+v, want selectivity 3 over 0 tiers", got)
	}
}

func TestExactModeOnLiveDataset(t *testing.T) {
	s, _ := newLiveServer(t, "r(a(b))", tier.Options{Synchronous: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/estimate?mode=exact&q=" + urlQueryEscape("//a"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 || er.Code != "no_exact_index" {
		t.Errorf("exact on live dataset: status %d code %q, want 404 no_exact_index", resp.StatusCode, er.Code)
	}
}

func TestUpdateShedWhileDraining(t *testing.T) {
	s, stk := newLiveServer(t, "r(a(b))", tier.Options{Synchronous: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.StartDrain()
	var er errorResponse
	req := UpdateRequest{Op: "insert", ParentOID: stk.Doc().Root.OID, Subtree: "a"}
	if code := postUpdate(t, ts, req, &er); code != 503 || er.Code != "draining" {
		t.Errorf("draining update: status %d code %q, want 503 draining", code, er.Code)
	}
	if stk.Doc().Size() != 3 {
		t.Errorf("draining update mutated the document (size %d)", stk.Doc().Size())
	}
}

// TestUpdateInjectDelay pins that InjectDelay applies to every admitted
// request, updates included.
func TestUpdateInjectDelay(t *testing.T) {
	stk, err := tier.New(xmltree.MustCompact("r(a)"), tier.Options{BudgetBytes: 4096, Synchronous: true})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Metrics: obs.NewRegistry(), InjectDelay: 50 * time.Millisecond})
	s.AddStack("live", stk)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ur UpdateResponse
	if code := postUpdate(t, ts, UpdateRequest{Op: "insert", ParentOID: stk.Doc().Root.OID, Subtree: "a"}, &ur); code != 200 {
		t.Fatalf("insert status %d", code)
	}
	if ur.Seconds < 0.05 {
		t.Errorf("update reported %vs under a 50ms InjectDelay", ur.Seconds)
	}
}

// TestSetCatalogDropsLiveDataset pins SetCatalog's replace-all meaning: a
// live dataset left out of the new set is gone from /update as well as
// /estimate and /datasets, and its document is no longer mutated.
func TestSetCatalogDropsLiveDataset(t *testing.T) {
	s, stk := newLiveServer(t, "r(a(b))", tier.Options{Synchronous: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.SetCatalog(map[string]*sketch.Sketch{"other": sketch.FromStable(stable.Build(xmltree.MustCompact("r(a)")))})
	for _, ds := range []string{"live", ""} {
		var er errorResponse
		req := UpdateRequest{Dataset: ds, Op: "insert", ParentOID: stk.Doc().Root.OID, Subtree: "a"}
		if code := postUpdate(t, ts, req, &er); code != 404 || er.Code != "unknown_dataset" {
			t.Errorf("update dataset %q after SetCatalog: status %d code %q, want 404 unknown_dataset", ds, code, er.Code)
		}
	}
	if stk.Doc().Size() != 3 {
		t.Errorf("document size %d after updates to a dropped dataset, want 3", stk.Doc().Size())
	}
	if got := s.Datasets(); len(got) != 1 || got[0] != "other" {
		t.Errorf("Datasets() = %v, want [other]", got)
	}
}

// TestStaticSketchReplacesLiveDataset pins that a frozen synopsis published
// over a live name replaces the stack: estimates answer from the new
// synopsis with no tier block, and the name stops accepting updates.
func TestStaticSketchReplacesLiveDataset(t *testing.T) {
	for _, tc := range []struct {
		name    string
		publish func(*Server, *sketch.Sketch)
	}{
		{"AddSketch", func(s *Server, sk *sketch.Sketch) { s.AddSketch("live", sk) }},
		{"SetCatalog", func(s *Server, sk *sketch.Sketch) { s.SetCatalog(map[string]*sketch.Sketch{"live": sk}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, stk := newLiveServer(t, "r(a(b),a(b))", tier.Options{Synchronous: true})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			tc.publish(s, sketch.FromStable(stable.Build(xmltree.MustCompact("r(a(b),a(b),a(b))"))))
			if er := estimate(t, ts, "//a/b"); er.Selectivity != 3 || er.Tier != nil {
				t.Errorf("estimate after replacing the stack: selectivity %v tier %+v, want 3 from the static sketch", er.Selectivity, er.Tier)
			}
			var er errorResponse
			req := UpdateRequest{Dataset: "live", Op: "insert", ParentOID: stk.Doc().Root.OID, Subtree: "a"}
			if code := postUpdate(t, ts, req, &er); code != 404 || er.Code != "unknown_dataset" {
				t.Errorf("update after replacing the stack: status %d code %q, want 404 unknown_dataset", code, er.Code)
			}
			if stk.Doc().Size() != 5 {
				t.Errorf("replaced stack's document size %d, want 5", stk.Doc().Size())
			}
		})
	}
}

// TestAddStackDoesNotPinCompactedBase pins that the server holds the stack
// only: once a compaction replaces the initial base, nothing in the server
// keeps that base alive. The base is never evaluated here, because eval's
// per-synopsis label-set cache would pin it on its own.
func TestAddStackDoesNotPinCompactedBase(t *testing.T) {
	s, stk := newLiveServer(t, "r(a(b),a(b))", tier.Options{Synchronous: true})
	collected := make(chan struct{})
	runtime.SetFinalizer(stk.View().Base, func(*sketch.Sketch) { close(collected) })

	if _, err := stk.Insert(stk.Doc().Root.OID, xmltree.MustCompact("a(b)")); err != nil {
		t.Fatal(err)
	}
	stk.Compact()
	if stk.View().Epoch == 0 {
		t.Fatal("Compact did not replace the base")
	}
	freed := false
	for i := 0; i < 50 && !freed; i++ {
		runtime.GC()
		select {
		case <-collected:
			freed = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(s)
	if !freed {
		t.Error("the initial base is still reachable after compaction; the server pins it")
	}
}
