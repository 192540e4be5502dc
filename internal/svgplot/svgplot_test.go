package svgplot

import (
	"encoding/xml"
	"strings"
	"testing"

	"github.com/reuseblock/reuseblock/internal/stats"
)

func sampleFigure() *stats.Figure {
	f := stats.NewFigure("Fig X: demo & more", "days", "CDF")
	f.Add("all", []stats.Point{{X: 0, Y: 0}, {X: 10, Y: 0.5}, {X: 44, Y: 1}})
	f.Add("nated <2>", []stats.Point{{X: 0, Y: 0}, {X: 44, Y: 0.9}})
	return f
}

// node is a generic XML tree for well-formedness checks.
type node struct {
	XMLName xml.Name
	Attrs   []xml.Attr `xml:",any,attr"`
	Nodes   []node     `xml:",any"`
	Text    string     `xml:",chardata"`
}

func parse(t *testing.T, svg string) node {
	t.Helper()
	var root node
	if err := xml.Unmarshal([]byte(svg), &root); err != nil {
		t.Fatalf("SVG not well-formed: %v\n%s", err, svg)
	}
	return root
}

func count(n node, name string) int {
	c := 0
	if n.XMLName.Local == name {
		c++
	}
	for _, ch := range n.Nodes {
		c += count(ch, name)
	}
	return c
}

func TestRenderWellFormed(t *testing.T) {
	svg := Render(sampleFigure(), Options{})
	root := parse(t, svg)
	if root.XMLName.Local != "svg" {
		t.Fatalf("root = %s", root.XMLName.Local)
	}
	if got := count(root, "polyline"); got != 2 {
		t.Errorf("polylines = %d, want 2", got)
	}
	// Escaping: the title's '&' and the series '<' must not break XML but
	// must appear in text.
	if !strings.Contains(svg, "demo &amp; more") {
		t.Error("title not escaped")
	}
}

func TestRenderLogScale(t *testing.T) {
	f := stats.NewFigure("ranked", "rank", "count")
	f.Add("s", []stats.Point{{X: 1, Y: 1000}, {X: 10, Y: 10}, {X: 100, Y: 1}})
	svg := Render(f, Options{LogY: true})
	parse(t, svg)
	if !strings.Contains(svg, "count (log)") {
		t.Error("log axis label missing")
	}
	// The max tick should print the original (non-log) value.
	if !strings.Contains(svg, ">1000<") {
		t.Errorf("max tick missing:\n%s", svg)
	}
}

func TestRenderEmptyFigure(t *testing.T) {
	f := stats.NewFigure("empty", "x", "y")
	svg := Render(f, Options{})
	parse(t, svg)
	if !strings.Contains(svg, "no data") {
		t.Error("empty figure should render a placeholder")
	}
	if count(parse(t, svg), "polyline") != 0 {
		t.Error("empty figure has polylines")
	}
}

func TestRenderSinglePointSeries(t *testing.T) {
	f := stats.NewFigure("one", "x", "y")
	f.Add("s", []stats.Point{{X: 5, Y: 5}})
	svg := Render(f, Options{})
	parse(t, svg) // degenerate ranges must not divide by zero
	if strings.Contains(svg, "NaN") || strings.Contains(svg, "Inf") {
		t.Errorf("degenerate range produced NaN/Inf:\n%s", svg)
	}
}

func TestRenderDeterministic(t *testing.T) {
	a := Render(sampleFigure(), Options{})
	b := Render(sampleFigure(), Options{})
	if a != b {
		t.Error("rendering is not deterministic")
	}
}

func TestRenderNonPositiveLogValues(t *testing.T) {
	f := stats.NewFigure("log", "x", "y")
	f.Add("s", []stats.Point{{X: 1, Y: 0}, {X: 2, Y: 100}})
	svg := Render(f, Options{LogY: true})
	parse(t, svg)
	if strings.Contains(svg, "NaN") || strings.Contains(svg, "-Inf") {
		t.Error("log of zero leaked into output")
	}
}
