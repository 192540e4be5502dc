package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Table renders the paper's tables as fixed-width text. Rows are appended in
// order; Render pads every column to its widest cell.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable starts a table with the given title and column header.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; cells beyond the header width are kept as-is.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render returns the fixed-width text form of the table.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total))
		b.WriteByte('\n')
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is a named sequence of points in a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure renders the paper's figures as aligned text series: one block per
// series, one "x y" line per point. It is deliberately plain so that bench
// and CLI output can be diffed and post-processed.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// NewFigure starts a figure.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// Add appends a named series.
func (f *Figure) Add(name string, pts []Point) {
	f.Series = append(f.Series, Series{Name: name, Points: pts})
}

// AddCDF appends a CDF sampled at up to n points.
func (f *Figure) AddCDF(name string, c *CDF, n int) {
	f.Add(name, c.Points(n))
}

// Render returns the text form of the figure.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", f.Title)
	fmt.Fprintf(&b, "# x: %s, y: %s\n", f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "series %q\n", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "  %s %s\n", trimFloat(p.X), trimFloat(p.Y))
		}
	}
	return b.String()
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}

// RankDescending returns the values sorted from largest to smallest; used
// for "per-blocklist count, sorted" figures (Fig 5, Fig 6).
func RankDescending(values []int) []int {
	out := make([]int, len(values))
	copy(out, values)
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// TopShare returns the fraction of the total contributed by the k largest
// values — the paper's "top 10 blocklists contribute 65.9%" style statistic.
func TopShare(values []int, k int) float64 {
	ranked := RankDescending(values)
	total, top := 0, 0
	for i, v := range ranked {
		total += v
		if i < k {
			top += v
		}
	}
	return Fraction(top, total)
}
