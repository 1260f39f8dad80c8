package eval

import (
	"testing"

	"treesketch/internal/query"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

// This file holds the approximate evaluator's reference enumeration, a test
// oracle: the naive depth-first enumeration that enumFast replaced (label-
// reachability pruning only, no plan, no can-complete memo), which computes
// each embedding's count or existence product by a separate walk of its node
// path. Tests install it with refOptions; on queries that do not truncate,
// the fast path must be bit-identical to it.

// refOptions returns o with the reference enumeration installed.
func refOptions(o Options) Options {
	r := &refEnum{}
	o.enumerate = r.enumerate
	return o
}

// refEnum is the reference enumeration with its label-reachability cache,
// valid for one synopsis at a time.
type refEnum struct {
	sk    *sketch.Sketch
	reach map[string][]bool // label -> per-node reachability in sk
}

// enumerate is the Options.enumerate installed by refOptions: the naive
// embeddings, each with its count (or existence) product from a separate
// walk.
func (r *refEnum) enumerate(a *approxer, from int, p *query.Path, needExist bool) []embedding {
	out := r.embeddings(a, from, p.Steps)
	for i := range out {
		prod := walkProduct(a.sk, from, out[i].nodes, needExist)
		if needExist {
			out[i].exist = prod
		} else {
			out[i].k = prod
		}
	}
	return out
}

// walkProduct re-walks an embedding's node path from node from, multiplying
// the average edge counts (or, with needExist, the per-hop existence
// probabilities) hop by hop in path order.
func walkProduct(sk *sketch.Sketch, from int, nodes []int, needExist bool) float64 {
	prod := 1.0
	prev := from
	for _, nid := range nodes {
		edge, ok := sk.Nodes[prev].EdgeTo(nid)
		if !ok {
			return 0
		}
		if needExist {
			prod *= edgeExistence(edge, sk.Nodes[prev].Count)
		} else {
			prod *= edge.Avg
		}
		prev = nid
	}
	return prod
}

// embeddings is the naive enumeration: a Child step follows one matching
// edge; a Descendant step follows any downward path ending at a matching
// label. Mappings sharing a node path are merged into one embedding with
// multiple step assignments.
//
// Two guards keep enumeration cheap: descendant exploration skips subgraphs
// from which the target label is unreachable (label-reachability prune),
// and total DFS work is bounded by a step budget proportional to
// MaxEmbeddings (or drawn from the top-k pool) so that fruitless dense
// regions cannot stall evaluation.
func (r *refEnum) embeddings(a *approxer, from int, steps []query.Step) []embedding {
	var out []embedding
	byPath := make(map[string]int) // node-path key -> index in out
	budget := a.opts.MaxEmbeddings
	work := 64 * a.opts.MaxEmbeddings
	if a.poolOn {
		budget, work = a.poolBudget, a.poolWork
	}
	startWork := work
	var nodes []int
	var stepAt []int

	var rec func(cur, si int)
	emit := func() {
		key := pathKey(nodes)
		if i, ok := byPath[key]; ok {
			out[i].stepAts = append(out[i].stepAts, append([]int(nil), stepAt...))
			return
		}
		byPath[key] = len(out)
		out = append(out, embedding{
			nodes:   append([]int(nil), nodes...),
			stepAts: [][]int{append([]int(nil), stepAt...)},
		})
	}
	var desc func(cur, si int)
	rec = func(cur, si int) {
		if budget <= 0 || work <= 0 {
			a.truncated = true
			return
		}
		if si == len(steps) {
			budget--
			emit()
			return
		}
		step := &steps[si]
		if step.Axis == query.Child {
			for _, e := range a.sk.Nodes[cur].Edges {
				if a.sk.Nodes[e.Child].Label != step.Label {
					continue
				}
				work--
				a.tickCtx(1)
				nodes = append(nodes, e.Child)
				stepAt = append(stepAt, len(nodes)-1)
				rec(e.Child, si+1)
				nodes = nodes[:len(nodes)-1]
				stepAt = stepAt[:len(stepAt)-1]
			}
			return
		}
		desc(cur, si)
	}
	// desc explores all downward paths for a Descendant step: every node
	// whose label matches is a landing point (and the search continues
	// deeper regardless, since descendants below a match can match too).
	desc = func(cur, si int) {
		if budget <= 0 {
			a.truncated = true
			return
		}
		step := &steps[si]
		for _, e := range a.sk.Nodes[cur].Edges {
			if work <= 0 {
				a.truncated = true
				return
			}
			if !r.reaches(a.sk, e.Child, step.Label) {
				continue
			}
			work--
			a.tickCtx(1)
			nodes = append(nodes, e.Child)
			if a.sk.Nodes[e.Child].Label == step.Label {
				stepAt = append(stepAt, len(nodes)-1)
				rec(e.Child, si+1)
				stepAt = stepAt[:len(stepAt)-1]
			}
			desc(e.Child, si)
			nodes = nodes[:len(nodes)-1]
		}
	}
	rec(from, 0)
	if a.poolOn {
		a.poolBudget, a.poolWork = budget, work
	}
	a.mEmbeddings.Add(int64(len(out)))
	a.mEmbedWork.Add(int64(startWork - work))
	return out
}

// reaches reports whether a node with the given label is reachable from id
// (including id itself) following synopsis edges. Computed once per label
// over the whole graph and cached until the synopsis changes.
func (r *refEnum) reaches(sk *sketch.Sketch, id int, label string) bool {
	if r.sk != sk {
		r.sk, r.reach = sk, make(map[string][]bool)
	}
	reach, ok := r.reach[label]
	if !ok {
		reach = make([]bool, len(sk.Nodes))
		// Seed with label occurrences, then propagate along reverse edges
		// until a fixed point; iterate passes for simplicity (graphs are
		// small and the pass count is bounded by the longest chain).
		for _, u := range sk.Nodes {
			if u != nil && u.Label == label {
				reach[u.ID] = true
			}
		}
		for changed := true; changed; {
			changed = false
			for _, u := range sk.Nodes {
				if u == nil || reach[u.ID] {
					continue
				}
				for _, e := range u.Edges {
					if reach[e.Child] {
						reach[u.ID] = true
						changed = true
						break
					}
				}
			}
		}
		r.reach[label] = reach
	}
	return reach[id]
}

// pathKey renders a node-ID sequence as a map key.
func pathKey(nodes []int) string {
	buf := make([]byte, 0, len(nodes)*3)
	for _, n := range nodes {
		for n >= 0x80 {
			buf = append(buf, byte(n)|0x80)
			n >>= 7
		}
		buf = append(buf, byte(n))
	}
	return string(buf)
}

func TestReachesCache(t *testing.T) {
	tr := xmltree.MustCompact("r(a(b(c)),d)")
	sk := sketch.FromStable(stable.Build(tr))
	r := &refEnum{}
	ids := map[string]int{}
	for _, u := range sk.Nodes {
		ids[u.Label] = u.ID
	}
	if !r.reaches(sk, ids["r"], "c") {
		t.Fatal("r should reach c")
	}
	if r.reaches(sk, ids["d"], "c") {
		t.Fatal("d should not reach c")
	}
	if !r.reaches(sk, ids["c"], "c") {
		t.Fatal("c should reach itself (label occurrence)")
	}
	if _, ok := r.reach["c"]; !ok {
		t.Fatal("reach result not cached")
	}
}
