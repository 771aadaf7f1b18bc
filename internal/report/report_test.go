package report

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestTableRenderAlignment(t *testing.T) {
	tb := NewTable("Demo", []string{"VS", "VL"}, []string{"Seq", "VW"})
	tb.Set(0, 0, 2.6)
	tb.Set(0, 1, 34.07)
	tb.Set(1, 0, 1.03)
	// (1,1) left NaN.
	out := tb.Render()
	if !strings.Contains(out, "Demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "34.07") || !strings.Contains(out, "2.60") {
		t.Errorf("missing values:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasSuffix(lines[3], "-") {
		t.Errorf("NaN cell should render as -:\n%s", out)
	}
}

func TestTableLargeValuesNoDecimals(t *testing.T) {
	tb := NewTable("", []string{"r"}, []string{"c"})
	tb.Set(0, 0, 135252.4)
	if !strings.Contains(tb.Render(), "135252") {
		t.Errorf("big value formatting:\n%s", tb.Render())
	}
	if strings.Contains(tb.Render(), "135252.4") {
		t.Error("big values should drop decimals")
	}
}

func TestTableNote(t *testing.T) {
	tb := NewTable("", []string{"r"}, []string{"c"})
	tb.Note = "hello"
	if !strings.Contains(tb.Render(), "note: hello") {
		t.Error("missing note")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("T", []string{"a,b"}, []string{"x"})
	tb.Set(0, 0, 1.5)
	csv := tb.CSV()
	if !strings.Contains(csv, `"a,b",1.5`) {
		t.Errorf("csv escaping broken:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "category,x\n") {
		t.Errorf("csv header:\n%s", csv)
	}
}

func TestTableCSVNaNEmpty(t *testing.T) {
	tb := NewTable("T", []string{"a"}, []string{"x", "y"})
	tb.Set(0, 1, 2)
	if !strings.Contains(tb.CSV(), "a,,2") {
		t.Errorf("NaN should be empty in csv:\n%s", tb.CSV())
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Title: "Util", XLabel: "load", X: []float64{1, 1.2}}
	s.Add("NS", []float64{55, 60})
	s.Add("SS", []float64{56, 64})
	out := s.Render()
	for _, want := range []string{"Util", "load", "NS", "SS", "1.2", "64"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	csv := s.CSV()
	if !strings.HasPrefix(csv, "load,NS,SS\n1,55,56\n") {
		t.Errorf("series csv:\n%s", csv)
	}
}

func TestSeriesAddLengthMismatchPanics(t *testing.T) {
	s := &Series{X: []float64{1, 2}}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Add("bad", []float64{1})
}

func TestPrecision(t *testing.T) {
	tb := NewTable("", []string{"r"}, []string{"c"})
	tb.Precision = 4
	tb.Set(0, 0, math.Pi)
	if !strings.Contains(tb.Render(), "3.1416") {
		t.Errorf("precision not honoured:\n%s", tb.Render())
	}
}

// fmtRender is Table.Render as it was written with fmt, each cell
// formatted by fmt.Sprintf once for the widths and once for the row:
// the reference Render must match byte for byte.
func fmtRender(t *Table) string {
	cell := func(v float64) string {
		if math.IsNaN(v) {
			return "-"
		}
		if math.Abs(v) >= 1000 || v == math.Trunc(v) {
			return fmt.Sprintf("%.0f", v)
		}
		return fmt.Sprintf("%.*f", t.prec(), v)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	rowW := 0
	for _, r := range t.RowLabels {
		if len(r) > rowW {
			rowW = len(r)
		}
	}
	colW := make([]int, len(t.ColLabels))
	for c, lbl := range t.ColLabels {
		colW[c] = len(lbl)
		for r := range t.RowLabels {
			if w := len(cell(t.Cells[r][c])); w > colW[c] {
				colW[c] = w
			}
		}
	}
	fmt.Fprintf(&b, "%-*s", rowW, "")
	for c, lbl := range t.ColLabels {
		fmt.Fprintf(&b, "  %*s", colW[c], lbl)
	}
	b.WriteByte('\n')
	for r, lbl := range t.RowLabels {
		fmt.Fprintf(&b, "%-*s", rowW, lbl)
		for c := range t.ColLabels {
			fmt.Fprintf(&b, "  %*s", colW[c], cell(t.Cells[r][c]))
		}
		b.WriteByte('\n')
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// TestTableRenderMatchesFmt compares Render with the fmt reference over
// NaN, ±Inf, −0, values from 1000 up, integral values, rounding ties,
// precisions 0 (the default 2) to 6, empty and set titles and notes,
// and labels whose rune count is below their byte count.
func TestTableRenderMatchesFmt(t *testing.T) {
	values := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1, 7, 999, -999,
		0.5, -0.5, 0.125, 2.675, 1.005, 0.0049999, -0.004, 5e-324, 123.456789, 999.4, 999.5,
		999.9999999, 1000, -1000, 1000.5, 1001.5, 135252.4, 1e15 + 0.5, 1e21, -1e21, 1e300,
		math.MaxFloat64, 1.0 / 3, -2.0 / 3,
	}
	rng := rand.New(rand.NewSource(1))
	for range 40 {
		values = append(values, (rng.Float64()-0.3)*math.Pow(10, float64(rng.Intn(8)-3)))
	}
	rows := []string{"VS Seq", "", "overall", "Σ≥ wide", "a"}
	cols := []string{"count", "mean sd", "", "p95 sd", "µ", "worst tat long label"}
	for prec := range 7 {
		for _, title := range []string{"", "per-category metrics"} {
			for _, note := range []string{"", "values in seconds"} {
				tb := NewTable(title, rows, cols)
				tb.Precision, tb.Note = prec, note
				for k := range len(rows) * len(cols) {
					tb.Set(k/len(cols), k%len(cols), values[(k*7+prec)%len(values)])
				}
				got, want := tb.Render(), fmtRender(tb)
				if got != want {
					t.Fatalf("precision %d, title %q, note %q:\n%s\nfmt reference:\n%s", prec, title, note, got, want)
				}
			}
		}
	}
	for _, v := range values {
		for prec := range 7 {
			tb := NewTable("", []string{"r"}, []string{"c"})
			tb.Precision = prec
			tb.Set(0, 0, v)
			if got, want := tb.Render(), fmtRender(tb); got != want {
				t.Fatalf("%v at precision %d: %q, fmt reference %q", v, prec, got, want)
			}
		}
	}
	for _, tb := range []*Table{NewTable("", nil, nil), NewTable("t", []string{"only row"}, nil), NewTable("", nil, []string{"only col"})} {
		if got, want := tb.Render(), fmtRender(tb); got != want {
			t.Fatalf("empty table: %q, fmt reference %q", got, want)
		}
	}
}

// BenchmarkTableRender renders a table shaped like a run summary: the
// sixteen categories and the overall row, nine columns.
func BenchmarkTableRender(b *testing.B) {
	rows := make([]string, 17)
	for i := range rows {
		rows[i] = fmt.Sprintf("category %d", i)
	}
	cols := []string{"count", "mean sd", "median sd", "p95 sd", "worst sd",
		"mean tat", "worst tat", "mean wait", "suspensions"}
	tb := NewTable("per-category metrics", rows, cols)
	rng := rand.New(rand.NewSource(1))
	for r := range rows {
		for c := range cols {
			tb.Set(r, c, rng.ExpFloat64()*math.Pow(10, float64(c%5)))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		_ = tb.Render()
	}
}
