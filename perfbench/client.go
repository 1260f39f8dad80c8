package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"
)

// reqHeader carries a traced request's id from the client to the handler
// wrapper, so client and handler spans of one request share it.
const reqHeader = "X-Bench-Req"

// answer is the part of an /estimate response the benchmark checks.
type answer struct {
	Dataset     string  `json:"dataset"`
	Selectivity float64 `json:"selectivity"`
	ResultNodes int     `json:"result_nodes"`
	Tier        *struct {
		Tiers int `json:"tiers"`
	} `json:"tier"`
	Seconds float64 `json:"seconds"`
}

// updateAnswer is the part of an /update response the benchmark checks.
type updateAnswer struct {
	OID     int     `json:"oid"`
	Elems   int     `json:"elems"`
	Seconds float64 `json:"seconds"`
}

// tally counts attempted and failed operations. Transport errors, non-200
// statuses (a 503 refusal included) and wrong answers are all failures.
type tally struct {
	attempted, failed, refused int
}

func (t *tally) record(status int, ok bool) {
	t.attempted++
	if status == http.StatusServiceUnavailable {
		t.refused++
	}
	if status != http.StatusOK || !ok {
		t.failed++
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.refused += o.refused
}

func (t tally) failedRatio() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

// tracedOp is one operation of a traced slice, kept for the replay.
type tracedOp struct {
	id      uint64
	start   time.Time
	update  bool
	req     estimateReq // estimates; for updates only req.doc is set
	op      updateOp    // updates
	client  float64     // seconds the client waited
	server  float64     // seconds the server reported
	success bool
}

// client is one closed-loop connection's state. Its fields are touched only
// by its own goroutine until the loop ends.
type client struct {
	hc   *http.Client
	base string
	rec  *recorder // nil: untraced

	counts    tally
	estimates []float64 // latencies of answered estimates, seconds
	updates   []float64 // latencies of applied updates, seconds
	overheads []float64 // client latency minus server-reported seconds
	depths    []float64 // live estimates: base plus delta tiers consulted
	traced    []tracedOp
}

// do sends one request and decodes a 200 body into out. It returns the
// status (0 on a transport error), the client-side latency and the
// traced request id (0 when untraced).
func (c *client) do(method, target string, body []byte, out any) (int, time.Time, float64, uint64) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+target, rd)
	if err != nil {
		return 0, time.Time{}, 0, 0
	}
	id := c.rec.nextReq()
	if c.rec != nil {
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	t0 := time.Now()
	res, err := c.hc.Do(req)
	if err != nil {
		return 0, t0, time.Since(t0).Seconds(), id
	}
	data, err := io.ReadAll(res.Body)
	res.Body.Close()
	status := res.StatusCode
	if err != nil {
		status = 0
	} else if status == http.StatusOK && json.Unmarshal(data, out) != nil {
		status = 0
	}
	t1 := time.Now()
	if c.rec != nil {
		c.rec.add(id, "client.request", "", t0, t1)
	}
	return status, t0, t1.Sub(t0).Seconds(), id
}

// estimate runs one /estimate request; check judges the decoded answer.
func (c *client) estimate(target string, r estimateReq, check func(answer) bool) {
	var a answer
	status, t0, sec, id := c.do(http.MethodGet, target, nil, &a)
	ok := status == http.StatusOK && check(a)
	c.counts.record(status, ok)
	if ok {
		c.estimates = append(c.estimates, sec)
		c.overheads = append(c.overheads, sec-a.Seconds)
		if a.Tier != nil {
			c.depths = append(c.depths, float64(1+a.Tier.Tiers))
		}
	}
	if c.rec != nil {
		c.traced = append(c.traced, tracedOp{id: id, start: t0, req: r, client: sec, server: a.Seconds, success: ok})
	}
}

// update runs one scripted /update and checks the server applied it as the
// mirror predicted.
func (c *client) update(doc int, op updateOp) {
	var a updateAnswer
	status, t0, sec, id := c.do(http.MethodPost, "/update", op.body, &a)
	ok := status == http.StatusOK && a.OID == op.wantOID && a.Elems == op.wantElems
	c.counts.record(status, ok)
	if ok {
		c.updates = append(c.updates, sec)
	}
	if c.rec != nil {
		c.traced = append(c.traced, tracedOp{id: id, start: t0, update: true, req: estimateReq{doc: doc}, op: op,
			client: sec, server: a.Seconds, success: ok})
	}
}

// traceHandler wraps the server's handler with the benchmark's handler
// span: requests that carry a traced id record "serve.handle" under their
// client span; untraced requests pass straight through.
func traceHandler(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		rec.add(id, "serve.handle", "client.request", t0, time.Now())
	})
}
