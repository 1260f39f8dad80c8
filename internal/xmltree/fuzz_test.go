package xmltree

import "testing"

// FuzzParse checks the XML parser never panics and that accepted documents
// survive a write/parse round trip.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"<a/>",
		"<a><b/><b></b></a>",
		"<a>text<b x='1'/><!--c--></a>",
		"<a><b><c/></b></a>",
		"<a",
		"<a></b>",
		"<a/><b/>",
		"<?xml version=\"1.0\"?><a/>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := ParseString(src)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted document fails Validate: %v", err)
		}
		var out string
		{
			var b cappedBuilder
			if err := tr.Write(&b); err != nil {
				t.Fatalf("Write: %v", err)
			}
			out = string(b.data)
		}
		back, err := ParseString(out)
		if err != nil {
			t.Fatalf("round trip parse failed: %v\noutput: %q", err, out)
		}
		if back.Size() != tr.Size() {
			t.Fatalf("round trip changed size: %d -> %d", tr.Size(), back.Size())
		}
	})
}

type cappedBuilder struct{ data []byte }

func (b *cappedBuilder) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

// FuzzCompact checks the compact-notation parser never panics and accepted
// inputs re-render to a fixed point.
func FuzzCompact(f *testing.F) {
	for _, s := range []string{
		"r",
		"r(a,b)",
		"r(a*3(b*2),c)",
		"r(",
		"r)(",
		"r(a*0)",
		"r(a*9999999)",
		"r(a*9999999999)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 200 {
			return // replication bombs are uninteresting
		}
		tr, err := BuildCompact(src)
		if err != nil {
			return
		}
		if tr.Size() > 1<<20 {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted tree fails Validate: %v", err)
		}
		c := tr.Compact()
		back, err := BuildCompact(c)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", c, err)
		}
		if back.Compact() != c {
			t.Fatalf("not a fixed point: %q -> %q", c, back.Compact())
		}
	})
}
