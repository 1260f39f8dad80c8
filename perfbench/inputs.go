package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strings"

	"treesketch/internal/datagen"
	"treesketch/internal/query"
	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

// family is one generated document family.
type family struct {
	name string
	kind datagen.Dataset
}

// txFamilies are the paper's three -TX datasets (Table 1).
var txFamilies = []family{
	{"IMDB-TX", datagen.IMDB},
	{"XMark-TX", datagen.XMark},
	{"SProt-TX", datagen.SwissProt},
}

// mix derives an independent stream seed from the workload seed and a tag,
// so every input stream changes with the seed and no two streams share one.
func mix(seed int64, tag uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(tag+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// document is one generated input document: the XML bytes the program
// parses, the generator's tree (the start of the client-side mirror and of
// the oracles), and a pool of positive twig queries as text.
type document struct {
	name    string
	xml     []byte
	tree    *xmltree.Tree
	queries []string
}

// genDocument generates a document of about elems elements and a pool of
// up to pool distinct positive twigs over it. Queries are sampled from the
// document's count-stable summary (the paper's Section 6.1 method), so each
// has a non-empty answer.
func genDocument(f family, elems, pool int, seed int64) (*document, error) {
	t := datagen.Generate(f.kind, elems, seed)
	var buf bytes.Buffer
	if err := t.Write(&buf); err != nil {
		return nil, fmt.Errorf("serialize %s: %w", f.name, err)
	}
	seen := make(map[string]bool)
	var qs []string
	for _, q := range query.Generate(stable.Build(t), 2*pool, query.GenOptions{Seed: seed + 1}) {
		s := q.String()
		if !seen[s] && len(qs) < pool {
			seen[s] = true
			qs = append(qs, s)
		}
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("%s: no queries generated", f.name)
	}
	return &document{name: f.name, xml: buf.Bytes(), tree: t, queries: qs}, nil
}

// corpusSeed generates the documents and query pools. They do not change
// with the workload seed, which drives the request streams and update
// scripts: the seed-to-seed spread of a metric then measures run noise and
// request order, not the luck of one corpus.
const corpusSeed = 1

// genCorpus generates one document per -TX family.
func genCorpus(elems, pool int, seed int64) ([]*document, error) {
	docs := make([]*document, len(txFamilies))
	for i, f := range txFamilies {
		d, err := genDocument(f, elems, pool, mix(seed, uint64(100+i)))
		if err != nil {
			return nil, err
		}
		docs[i] = d
	}
	return docs, nil
}

// mode is how an /estimate request is answered.
type mode uint8

const (
	modeApprox mode = iota // batch approximate answer
	modeTopK               // streamed top-k answer, ?k=topK
	modeExact              // exact count, ?mode=exact
)

func (m mode) String() string { return [...]string{"approx", "topk", "exact"}[m] }

// topK is the node budget of top-k requests.
const topK = 16

// estimateReq is one /estimate request: a query of one document's pool.
type estimateReq struct {
	doc, query int
	mode       mode
}

// target renders the request's path and query string.
func (r estimateReq) target(docs []*document) string {
	v := url.Values{}
	v.Set("dataset", docs[r.doc].name)
	v.Set("q", docs[r.doc].queries[r.query])
	switch r.mode {
	case modeTopK:
		v.Set("k", fmt.Sprint(topK))
	case modeExact:
		v.Set("mode", "exact")
	}
	return "/estimate?" + v.Encode()
}

// readMix is the static-read request mix in percent: approx, top-k, exact.
var readMix = [3]int{80, 10, 10}

// stream is one closed-loop client's deterministic op sequence.
type stream struct {
	rng  *rand.Rand
	docs []*document
}

func newStream(seed int64, client int, docs []*document) *stream {
	return &stream{rng: rand.New(rand.NewSource(mix(seed, uint64(client)))), docs: docs}
}

// nextRead draws the next static-read request.
func (s *stream) nextRead() estimateReq {
	d := s.rng.Intn(len(s.docs))
	r := estimateReq{doc: d, query: s.rng.Intn(len(s.docs[d].queries))}
	switch p := s.rng.Intn(100); {
	case p < readMix[0]:
		r.mode = modeApprox
	case p < readMix[0]+readMix[1]:
		r.mode = modeTopK
	default:
		r.mode = modeExact
	}
	return r
}

// updatePct is the live-mixed share of updates, in percent.
const updatePct = 20

// nextLive draws the next live-mixed step: an update of one of the owned
// documents (update true, doc set) or an approximate estimate.
func (s *stream) nextLive(owned []int) (r estimateReq, update bool) {
	if len(owned) > 0 && s.rng.Intn(100) < updatePct {
		return estimateReq{doc: owned[s.rng.Intn(len(owned))]}, true
	}
	d := s.rng.Intn(len(s.docs))
	return estimateReq{doc: d, query: s.rng.Intn(len(s.docs[d].queries))}, false
}

// mnode is one element of the client-side mirror of a live document.
type mnode struct {
	oid      int
	label    string
	parent   *mnode
	children []*mnode
	pos      int // index in mirror.live
	size     int // elements in the subtree
}

// mirror tracks a live document on the client side so that every scripted
// update is valid when it reaches the server: OIDs follow the server's
// allocation (pre-order from 0 at parse, then pre-order per inserted
// subtree), inserts append the subtree as the parent's last child.
type mirror struct {
	name    string
	rng     *rand.Rand
	root    *mnode
	live    []*mnode
	nextOID int
	sent    int // updates drawn so far
}

// maxOpElems bounds the subtree an update inserts or deletes.
const maxOpElems = 16

func newMirror(d *document, seed int64, idx int) *mirror {
	m := &mirror{name: d.name, rng: rand.New(rand.NewSource(mix(seed, uint64(200+idx))))}
	var copyNode func(n *xmltree.Node, parent *mnode) *mnode
	copyNode = func(n *xmltree.Node, parent *mnode) *mnode {
		c := m.add(n.Label, parent)
		for _, k := range n.Children {
			copyNode(k, c)
		}
		return c
	}
	m.root = copyNode(d.tree.Root, nil)
	return m
}

// add appends a new element with the next OID as parent's last child.
func (m *mirror) add(label string, parent *mnode) *mnode {
	n := &mnode{oid: m.nextOID, label: label, parent: parent, pos: len(m.live), size: 1}
	m.nextOID++
	m.live = append(m.live, n)
	if parent != nil {
		parent.children = append(parent.children, n)
		for p := parent; p != nil; p = p.parent {
			p.size++
		}
	}
	return n
}

// opSubtree picks the subtree an update moves: the largest subtree of at
// most maxOpElems elements that holds a random element. Most elements are
// leaves; moving whole small subtrees instead of single leaves lets a run
// finish many compactions, so its estimates meet many rebuilt bases.
func (m *mirror) opSubtree() *mnode {
	n := m.live[m.rng.Intn(len(m.live))]
	for n.size > maxOpElems {
		n = n.children[m.rng.Intn(len(n.children))]
	}
	for n.parent != nil && n.parent.size <= maxOpElems {
		n = n.parent
	}
	return n
}

// updateOp is one scripted update: the JSON body and the answer the server
// must give if it applied the script faithfully.
type updateOp struct {
	body      []byte
	wantOID   int
	wantElems int
	moved     int // elements inserted or deleted
}

type updateBody struct {
	Dataset   string `json:"dataset"`
	Op        string `json:"op"`
	ParentOID int    `json:"parent_oid,omitempty"`
	OID       int    `json:"oid,omitempty"`
	Subtree   string `json:"subtree,omitempty"`
}

// parentTries bounds the search for an insert's parent.
const parentTries = 32

// parentFor picks where a copy of src is inserted: a random element with
// the label of src's parent, so inserts follow the document's schema (a new
// actor goes under some cast), or src's own parent when a few random picks
// find none.
func (m *mirror) parentFor(src *mnode) *mnode {
	if src.parent == nil {
		return src
	}
	for i := 0; i < parentTries; i++ {
		if p := m.live[m.rng.Intn(len(m.live))]; p.label == src.parent.label && !within(p, src) {
			return p
		}
	}
	return src.parent
}

// within reports whether n lies in the subtree rooted at root.
func within(n, root *mnode) bool {
	for ; n != nil; n = n.parent {
		if n == root {
			return true
		}
	}
	return false
}

// next draws the next update and applies it to the mirror. Inserts copy a
// random small subtree under an element labeled like its parent; deletes
// remove a random small non-root subtree. The two are equally likely, so
// the document stays near its initial size.
func (m *mirror) next() updateOp {
	m.sent++
	var b updateBody
	var want, moved int
	if m.rng.Intn(2) == 0 || len(m.live) < 64 {
		src := m.opSubtree()
		parent := m.parentFor(src)
		b = updateBody{Dataset: m.name, Op: "insert", ParentOID: parent.oid, Subtree: compact(src)}
		moved = src.size
		want = m.clone(src, parent).oid
	} else {
		// The document has far more than maxOpElems elements, so the pick
		// is never the root.
		victim := m.opSubtree()
		b = updateBody{Dataset: m.name, Op: "delete", OID: victim.oid}
		want, moved = victim.oid, victim.size
		m.remove(victim)
	}
	body, err := json.Marshal(b)
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return updateOp{body: body, wantOID: want, wantElems: len(m.live), moved: moved}
}

// labelTree is a detached copy of a subtree's labels.
type labelTree struct {
	label string
	kids  []labelTree
}

func labelsOf(n *mnode) labelTree {
	t := labelTree{label: n.label}
	for _, c := range n.children {
		t.kids = append(t.kids, labelsOf(c))
	}
	return t
}

// clone copies src as parent's last child, allocating OIDs in pre-order.
// src may contain parent, so the copy is taken before anything is added.
func (m *mirror) clone(src, parent *mnode) *mnode {
	var attach func(t labelTree, p *mnode) *mnode
	attach = func(t labelTree, p *mnode) *mnode {
		c := m.add(t.label, p)
		for _, k := range t.kids {
			attach(k, c)
		}
		return c
	}
	return attach(labelsOf(src), parent)
}

// remove detaches n's subtree.
func (m *mirror) remove(n *mnode) {
	p := n.parent
	for i, c := range p.children {
		if c == n {
			p.children = append(p.children[:i:i], p.children[i+1:]...)
			break
		}
	}
	for a := p; a != nil; a = a.parent {
		a.size -= n.size
	}
	var drop func(x *mnode)
	drop = func(x *mnode) {
		last := m.live[len(m.live)-1]
		m.live[x.pos] = last
		last.pos = x.pos
		m.live = m.live[:len(m.live)-1]
		for _, c := range x.children {
			drop(c)
		}
	}
	drop(n)
}

// compact renders a subtree in xmltree's compact syntax, "a(b,c(d))".
func compact(n *mnode) string {
	var b strings.Builder
	var walk func(x *mnode)
	walk = func(x *mnode) {
		b.WriteString(x.label)
		if len(x.children) > 0 {
			b.WriteByte('(')
			for i, c := range x.children {
				if i > 0 {
					b.WriteByte(',')
				}
				walk(c)
			}
			b.WriteByte(')')
		}
	}
	walk(n)
	return b.String()
}

// tree materializes the mirror as an xmltree document (the final-document
// oracle input).
func (m *mirror) tree() *xmltree.Tree {
	t := xmltree.NewTree()
	var build func(x *mnode) *xmltree.Node
	build = func(x *mnode) *xmltree.Node {
		n := t.NewNode(x.label)
		for _, c := range x.children {
			n.Children = append(n.Children, build(c))
		}
		return n
	}
	t.Root = build(m.root)
	return t
}

// sameDoc reports whether the server's document matches the mirror element
// for element, OIDs included.
func (m *mirror) sameDoc(doc *xmltree.Tree) error {
	var walk func(x *mnode, n *xmltree.Node) error
	walk = func(x *mnode, n *xmltree.Node) error {
		if x.oid != n.OID || x.label != n.Label || len(x.children) != len(n.Children) {
			return fmt.Errorf("%s: element oid %d (%s, %d children) != mirror oid %d (%s, %d children)",
				m.name, n.OID, n.Label, len(n.Children), x.oid, x.label, len(x.children))
		}
		for i := range x.children {
			if err := walk(x.children[i], n.Children[i]); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(m.root, doc.Root)
}
