// Package stats provides the small statistical toolkit the analysis and
// figure code is built on: empirical CDFs, summaries, and
// fixed-width text rendering of the paper's tables and figures.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from the samples; the input slice is not modified.
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the number of samples.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x), the fraction of samples at or below x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with sorted[i] > x.
	i := sort.SearchFloat64s(c.sorted, x)
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q'th quantile (0 <= q <= 1) using nearest-rank.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	rank := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return c.sorted[rank]
}

// Mean returns the sample mean.
func (c *CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range c.sorted {
		sum += v
	}
	return sum / float64(len(c.sorted))
}

// Max returns the largest sample.
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[len(c.sorted)-1]
}

// Min returns the smallest sample.
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[0]
}

// Points returns up to n evenly spaced (x, P(X<=x)) points suitable for
// plotting; it always includes the extremes.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n == 1 {
		return []Point{{c.sorted[len(c.sorted)-1], 1}}
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / (n - 1)
		x := c.sorted[idx]
		pts = append(pts, Point{X: x, Y: c.At(x)})
	}
	return dedupPoints(pts)
}

// Point is an (x, y) pair in a rendered series.
type Point struct {
	X, Y float64
}

func dedupPoints(pts []Point) []Point {
	out := pts[:0]
	for _, p := range pts {
		if len(out) == 0 || out[len(out)-1] != p {
			out = append(out, p)
		}
	}
	return out
}

// Summary aggregates the scalar statistics reported in the paper text.
type Summary struct {
	N              int
	Mean, Min, Max float64
	Median         float64
	P90, P99       float64
}

// Summarize computes a Summary of the samples.
func Summarize(samples []float64) Summary {
	c := NewCDF(samples)
	if c.Len() == 0 {
		return Summary{}
	}
	return Summary{
		N:      c.Len(),
		Mean:   c.Mean(),
		Min:    c.Min(),
		Max:    c.Max(),
		Median: c.Quantile(0.5),
		P90:    c.Quantile(0.9),
		P99:    c.Quantile(0.99),
	}
}

// Fraction returns count/total as a ratio in [0,1]; it returns 0 when total
// is 0 so callers can print it without special-casing empty inputs.
func Fraction(count, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(count) / float64(total)
}

// Percent formats a ratio as "12.3%".
func Percent(ratio float64) string {
	return fmt.Sprintf("%.1f%%", ratio*100)
}
