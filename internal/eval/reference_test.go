package eval

import (
	"treesketch/internal/query"
	"treesketch/internal/xmltree"
)

// This file preserves the pre-fast-path exact evaluator as a test oracle:
// per-query map memo tables and per-step map deduplication, exactly as the
// evaluator worked before the dense epoch-stamped scratch and label-indexed
// child scans. Differential tests assert the fast path is bit-identical to
// it; the approximate evaluator's reference enumeration lives in
// approx_reference_test.go for the same reason.

// exactReference evaluates q with the original map-based exact evaluator
// and returns the binding-tuple count and emptiness. Results are
// bit-identical to Exact (the fast path changes memo layout and scan
// strategy, never the sequence of arithmetic).
func exactReference(ix *Index, q *query.Query) (tuples float64, empty bool) {
	ev := &refEvaluator{
		ix:        ix,
		qnodes:    q.Vars(),
		qidx:      make(map[*query.Node]int),
		matchMemo: make(map[refMatchKey][]*xmltree.Node),
		validMemo: make(map[refMemoKey]int8),
		tupMemo:   make(map[refMemoKey]float64),
		predMemo:  make(map[refPredKey]bool),
	}
	for i, qn := range ev.qnodes {
		ev.qidx[qn] = i
	}
	root := ix.Doc.Root
	if root == nil || !ev.valid(0, root) {
		return 0, true
	}
	t := ev.tuples(0, root)
	return t, t == 0
}

type refEvaluator struct {
	ix     *Index
	qnodes []*query.Node
	qidx   map[*query.Node]int

	matchMemo map[refMatchKey][]*xmltree.Node
	validMemo map[refMemoKey]int8 // 0 unknown, 1 valid, 2 invalid
	tupMemo   map[refMemoKey]float64
	predMemo  map[refPredKey]bool
}

type refMemoKey struct {
	q   int
	oid int
}

type refMatchKey struct {
	edge *query.Edge
	oid  int
}

type refPredKey struct {
	pred *query.Path
	oid  int
}

// path is the original per-step evaluation: per source element, candidates
// are gathered, predicate-filtered, and deduplicated with a map.
func (ev *refEvaluator) path(e *xmltree.Node, p *query.Path) []*xmltree.Node {
	cur := []*xmltree.Node{e}
	for si := range p.Steps {
		step := &p.Steps[si]
		seen := make(map[int]bool)
		var next []*xmltree.Node
		for _, c := range cur {
			var cands []*xmltree.Node
			if step.Axis == query.Child {
				cands = ev.ix.Children(c, step.Label)
			} else {
				cands = ev.ix.Descendants(c, step.Label)
			}
			for _, t := range cands {
				if seen[t.OID] {
					continue
				}
				if !ev.satisfiesPreds(t, step.Preds) {
					continue
				}
				seen[t.OID] = true
				next = append(next, t)
			}
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

func (ev *refEvaluator) satisfiesPreds(e *xmltree.Node, preds []*query.Path) bool {
	for _, pred := range preds {
		k := refPredKey{pred, e.OID}
		sat, ok := ev.predMemo[k]
		if !ok {
			sat = len(ev.path(e, pred)) > 0
			ev.predMemo[k] = sat
		}
		if !sat {
			return false
		}
	}
	return true
}

func (ev *refEvaluator) matches(edge *query.Edge, e *xmltree.Node) []*xmltree.Node {
	k := refMatchKey{edge, e.OID}
	if m, ok := ev.matchMemo[k]; ok {
		return m
	}
	m := ev.path(e, edge.Path)
	ev.matchMemo[k] = m
	return m
}

func (ev *refEvaluator) valid(qi int, e *xmltree.Node) bool {
	k := refMemoKey{qi, e.OID}
	if v, ok := ev.validMemo[k]; ok {
		return v == 1
	}
	ev.validMemo[k] = 2
	qn := ev.qnodes[qi]
	ok := true
	for _, edge := range qn.Edges {
		if edge.Optional {
			continue
		}
		found := false
		for _, m := range ev.matches(edge, e) {
			if ev.valid(ev.qidx[edge.Child], m) {
				found = true
				break
			}
		}
		if !found {
			ok = false
			break
		}
	}
	if ok {
		ev.validMemo[k] = 1
	}
	return ok
}

func (ev *refEvaluator) tuples(qi int, e *xmltree.Node) float64 {
	k := refMemoKey{qi, e.OID}
	if v, ok := ev.tupMemo[k]; ok {
		return v
	}
	qn := ev.qnodes[qi]
	total := 1.0
	for _, edge := range qn.Edges {
		var s float64
		for _, m := range ev.matches(edge, e) {
			if ev.valid(ev.qidx[edge.Child], m) {
				s += ev.tuples(ev.qidx[edge.Child], m)
			}
		}
		if s == 0 {
			if edge.Optional {
				s = 1
			} else {
				total = 0
				break
			}
		}
		total *= s
	}
	ev.tupMemo[k] = total
	return total
}
