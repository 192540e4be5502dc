// Package svgplot renders stats.Figure series as standalone SVG line
// charts, so the reproduction's figures can be compared against the paper's
// visually. Rendering is dependency-free and deterministic.
package svgplot

import (
	"fmt"
	"math"
	"strings"

	"github.com/reuseblock/reuseblock/internal/stats"
)

// Options tune a rendering.
type Options struct {
	// LogY plots the y axis on a log10 scale (values must be > 0;
	// non-positive values are clamped to the smallest positive value).
	LogY bool
}

// palette holds the series stroke colours (colour-blind-safe-ish).
var palette = []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"}

const (
	// width and height of the SVG canvas in pixels.
	width, height = 640, 420

	marginLeft   = 70
	marginRight  = 20
	marginTop    = 40
	marginBottom = 50
)

// Render returns the figure as an SVG document.
func Render(f *stats.Figure, opt Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	esc := escape
	fmt.Fprintf(&b, `<text x="%d" y="22" font-family="sans-serif" font-size="14" font-weight="bold">%s</text>`+"\n",
		marginLeft, esc(f.Title))

	const plotW = width - marginLeft - marginRight
	const plotH = height - marginTop - marginBottom

	minX, maxX, minY, maxY, any := bounds(f, opt)
	if !any {
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="12">no data</text>`+"\n",
			marginLeft, marginTop+20)
		b.WriteString("</svg>\n")
		return b.String()
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	sx := func(x float64) float64 {
		return float64(marginLeft) + (x-minX)/(maxX-minX)*float64(plotW)
	}
	sy := func(y float64) float64 {
		return float64(marginTop) + float64(plotH) - (scale(y, opt.LogY)-minY)/(maxY-minY)*float64(plotH)
	}

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginLeft, marginTop+plotH, marginLeft+plotW, marginTop+plotH)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginLeft, marginTop, marginLeft, marginTop+plotH)
	// Axis labels and extremes.
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
		marginLeft+plotW/2, height-12, esc(f.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%d" font-family="sans-serif" font-size="11" text-anchor="middle" transform="rotate(-90 14 %d)">%s</text>`+"\n",
		marginTop+plotH/2, marginTop+plotH/2, esc(axisLabel(f.YLabel, opt.LogY)))
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="10">%s</text>`+"\n",
		marginLeft, marginTop+plotH+16, fmtTick(minX, false))
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" text-anchor="end">%s</text>`+"\n",
		marginLeft+plotW, marginTop+plotH+16, fmtTick(maxX, false))
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" text-anchor="end">%s</text>`+"\n",
		marginLeft-6, marginTop+plotH, fmtTick(minY, opt.LogY))
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" text-anchor="end">%s</text>`+"\n",
		marginLeft-6, marginTop+10, fmtTick(maxY, opt.LogY))

	// Series.
	for i, s := range f.Series {
		if len(s.Points) == 0 {
			continue
		}
		color := palette[i%len(palette)]
		var pts []string
		for _, p := range s.Points {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", sx(p.X), sy(p.Y)))
		}
		fmt.Fprintf(&b, `<polyline fill="none" stroke="%s" stroke-width="1.8" points="%s"/>`+"\n",
			color, strings.Join(pts, " "))
		// Legend entry.
		ly := marginTop + 14 + i*16
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`+"\n",
			marginLeft+plotW-150, ly-4, marginLeft+plotW-130, ly-4, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="10">%s</text>`+"\n",
			marginLeft+plotW-125, ly, esc(s.Name))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func axisLabel(base string, log bool) string {
	if log {
		return base + " (log)"
	}
	return base
}

// bounds computes the extents over all series, y scaled.
func bounds(f *stats.Figure, opt Options) (minX, maxX, minY, maxY float64, any bool) {
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	for _, s := range f.Series {
		for _, p := range s.Points {
			x, y := p.X, scale(p.Y, opt.LogY)
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
			any = true
		}
	}
	return minX, maxX, minY, maxY, any
}

func scale(v float64, log bool) float64 {
	if !log {
		return v
	}
	if v < 1e-9 {
		v = 1e-9
	}
	return math.Log10(v)
}

func fmtTick(v float64, log bool) string {
	if log {
		v = math.Pow(10, v)
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e12 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3g", v)
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
