package stats

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("Demo", "Name", "Count")
	tbl.AddRow("alpha", "1")
	tbl.AddRow("b", "22222")
	out := tbl.Render()
	if !strings.Contains(out, "== Demo ==") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "Name") {
		t.Errorf("header line = %q", lines[1])
	}
	// Columns align: "alpha" padded to width of "alpha" (5).
	if !strings.HasPrefix(lines[3], "alpha  1") {
		t.Errorf("row line = %q", lines[3])
	}
}

func TestFigureRender(t *testing.T) {
	f := NewFigure("Fig X", "days", "CDF")
	f.Add("all", []Point{{0, 0}, {1, 0.5}, {2, 1}})
	out := f.Render()
	for _, want := range []string{"== Fig X ==", `series "all"`, "  1 0.5", "  2 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFigureAddCDF(t *testing.T) {
	f := NewFigure("c", "x", "y")
	f.AddCDF("s", NewCDF([]float64{1, 2, 3}), 3)
	if len(f.Series) != 1 || len(f.Series[0].Points) == 0 {
		t.Fatal("AddCDF produced no points")
	}
}

func TestRankDescending(t *testing.T) {
	in := []int{3, 9, 1}
	got := RankDescending(in)
	if got[0] != 9 || got[2] != 1 {
		t.Errorf("RankDescending = %v", got)
	}
	if in[0] != 3 {
		t.Error("input mutated")
	}
}

func TestTopShare(t *testing.T) {
	vals := []int{50, 30, 10, 5, 5}
	if got := TopShare(vals, 2); got != 0.8 {
		t.Errorf("TopShare = %v, want 0.8", got)
	}
	if got := TopShare(vals, 100); got != 1 {
		t.Errorf("TopShare all = %v", got)
	}
	if got := TopShare(nil, 3); got != 0 {
		t.Errorf("TopShare empty = %v", got)
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(5) != "5" {
		t.Errorf("trimFloat(5) = %s", trimFloat(5))
	}
	if trimFloat(0.5) != "0.5" {
		t.Errorf("trimFloat(0.5) = %s", trimFloat(0.5))
	}
}
