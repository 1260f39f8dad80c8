package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share Req; Parent names the enclosing span of the same request, empty at
// the top. Replayed spans were measured by calling the layer directly after
// the run (it is reachable only through its caller during the run) and are
// laid out back to back from their parent's start.
type span struct {
	Req      uint64 `json:"req"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// recorder keeps every span of a traced run in memory; they are written out
// once the run ends so the writes never overlap a timed slice.
type recorder struct {
	epoch  time.Time
	reqs   atomic.Uint64
	mu     sync.Mutex
	spans  []span
	starts map[spanKey]int64 // start of each measured span, for replay layout
}

type spanKey struct {
	req  uint64
	name string
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), starts: make(map[spanKey]int64)}
}

// nextReq allocates a request id; a nil recorder returns 0.
func (r *recorder) nextReq() uint64 {
	if r == nil {
		return 0
	}
	return r.reqs.Add(1)
}

// add records a span measured during the run.
func (r *recorder) add(req uint64, name, parent string, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := span{
		Req: req, Name: name, Parent: parent,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	}
	r.spans = append(r.spans, s)
	r.starts[spanKey{req, name}] = s.Start
}

// addReplayed records the replayed durations of a request's child calls,
// in call order, laid out from the start of the request's parent span.
// It does nothing when the request has no such parent.
func (r *recorder) addReplayed(req uint64, parent string, names []string, durs []time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	at, ok := r.starts[spanKey{req, parent}]
	if !ok {
		return
	}
	for i, n := range names {
		end := at + durs[i].Nanoseconds()
		r.spans = append(r.spans, span{Req: req, Name: n, Parent: parent, Start: at, End: end, Replayed: true})
		at = end
	}
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the duration of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children count once, and child time outside
// the parent's interval is ignored.
func selfTime(parent span, children []span) float64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	for i := 0; i < len(ivs); {
		a, b := ivs[i].a, ivs[i].b
		for i++; i < len(ivs) && ivs[i].a <= b; i++ {
			b = max(b, ivs[i].b)
		}
		covered += b - a
	}
	return float64(parent.End-parent.Start-covered) / 1e9
}

// selfTimes returns the self time of every span named name, each against
// the spans of the same request that name it as their parent.
func selfTimes(spans []span, name string) []float64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent == name {
			kids[s.Req] = append(kids[s.Req], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name && !s.Replayed {
			out = append(out, selfTime(s, kids[s.Req]))
		}
	}
	return out
}
