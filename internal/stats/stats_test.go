package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3, 10})
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0},
		{1, 0.2},
		{2, 0.6},
		{2.5, 0.6},
		{10, 1},
		{100, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(5) != 0 || c.Len() != 0 {
		t.Error("empty CDF should return 0 everywhere")
	}
	if !math.IsNaN(c.Mean()) || !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty CDF stats should be NaN")
	}
	if c.Points(5) != nil {
		t.Error("empty CDF should have no points")
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if got := c.Quantile(0.5); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := c.Quantile(1); got != 10 {
		t.Errorf("q1 = %v", got)
	}
	if got := c.Quantile(0.9); got != 9 {
		t.Errorf("p90 = %v", got)
	}
}

func TestCDFMonotonicProperty(t *testing.T) {
	f := func(raw []float64) bool {
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			}
		}
		c := NewCDF(raw)
		xs := append([]float64{}, raw...)
		sort.Float64s(xs)
		prev := 0.0
		for _, x := range xs {
			y := c.At(x)
			if y < prev-1e-12 || y < 0 || y > 1 {
				return false
			}
			prev = y
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFInputNotMutated(t *testing.T) {
	in := []float64{3, 1, 2}
	NewCDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("NewCDF mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 6, 8})
	if s.N != 4 || s.Mean != 5 || s.Min != 2 || s.Max != 8 {
		t.Errorf("Summary = %+v", s)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}

func TestCDFPoints(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i)
	}
	c := NewCDF(samples)
	pts := c.Points(11)
	if len(pts) == 0 || pts[0].X != 0 || pts[len(pts)-1].X != 99 {
		t.Fatalf("Points = %v", pts)
	}
	if pts[len(pts)-1].Y != 1 {
		t.Errorf("last point Y = %v, want 1", pts[len(pts)-1].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Fatalf("points not monotone: %v", pts)
		}
	}
}

func TestFractionAndPercent(t *testing.T) {
	if Fraction(1, 0) != 0 {
		t.Error("Fraction with zero total should be 0")
	}
	if Fraction(1, 4) != 0.25 {
		t.Error("Fraction(1,4)")
	}
	if Percent(0.123) != "12.3%" {
		t.Errorf("Percent = %s", Percent(0.123))
	}
}
