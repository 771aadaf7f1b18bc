// Package report renders experiment results as aligned ASCII tables and
// line series, with CSV export for plotting. It is intentionally plain:
// the paper's figures are bar charts over 16 categories and line plots
// over load factors, both of which read fine as text.
package report

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a labelled 2-D grid of values. NaN cells render as "-".
type Table struct {
	Title     string
	RowLabels []string
	ColLabels []string
	Cells     [][]float64
	Precision int // decimal places; default 2
	Note      string
}

// NewTable allocates a rows×cols table filled with NaN.
func NewTable(title string, rows, cols []string) *Table {
	cells := make([][]float64, len(rows))
	for i := range cells {
		cells[i] = make([]float64, len(cols))
		for k := range cells[i] {
			cells[i][k] = math.NaN()
		}
	}
	return &Table{Title: title, RowLabels: rows, ColLabels: cols, Cells: cells}
}

// Set assigns one cell.
func (t *Table) Set(row, col int, v float64) { t.Cells[row][col] = v }

func (t *Table) prec() int {
	if t.Precision == 0 {
		return 2
	}
	return t.Precision
}

// appendCell appends v's cell text: "-" for NaN, no decimals for large
// and integral values (they read better without), the table's
// precision otherwise.
func (t *Table) appendCell(dst []byte, v float64) []byte {
	if math.IsNaN(v) {
		return append(dst, '-')
	}
	if math.Abs(v) >= 1000 || v == math.Trunc(v) {
		return strconv.AppendFloat(dst, v, 'f', 0, 64)
	}
	return strconv.AppendFloat(dst, v, 'f', t.prec(), 64)
}

// Render draws the table with aligned columns. Each cell is formatted
// once, into one buffer, before the widths are known. A column is as
// wide as its longest label or cell in bytes; labels are padded to it
// by their rune count, as fmt's %*s pads.
func (t *Table) Render() string {
	cells := len(t.RowLabels) * len(t.ColLabels)
	at := make([]int, 1, cells+1) // cell k is text[at[k]:at[k+1]]
	text := make([]byte, 0, 8*cells)
	for r := range t.RowLabels {
		for c := range t.ColLabels {
			text = t.appendCell(text, t.Cells[r][c])
			at = append(at, len(text))
		}
	}
	rowW := 0
	for _, r := range t.RowLabels {
		rowW = max(rowW, len(r))
	}
	colW := make([]int, len(t.ColLabels))
	line := rowW + len("\n")
	for c, lbl := range t.ColLabels {
		colW[c] = len(lbl)
		for r := range t.RowLabels {
			k := r*len(t.ColLabels) + c
			colW[c] = max(colW[c], at[k+1]-at[k])
		}
		line += len("  ") + colW[c]
	}
	n := line * (len(t.RowLabels) + 1) // exact when every label is ASCII
	if t.Title != "" {
		n += len(t.Title) + len("\n")
	}
	if t.Note != "" {
		n += len("note: \n") + len(t.Note)
	}
	var b strings.Builder
	b.Grow(n)
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	pad(&b, rowW)
	for c, lbl := range t.ColLabels {
		pad(&b, len("  ")+colW[c]-utf8.RuneCountInString(lbl))
		b.WriteString(lbl)
	}
	b.WriteByte('\n')
	for r, lbl := range t.RowLabels {
		b.WriteString(lbl)
		pad(&b, rowW-utf8.RuneCountInString(lbl))
		for c := range t.ColLabels {
			k := r*len(t.ColLabels) + c
			cell := text[at[k]:at[k+1]]
			pad(&b, len("  ")+colW[c]-len(cell))
			b.Write(cell)
		}
		b.WriteByte('\n')
	}
	if t.Note != "" {
		b.WriteString("note: ")
		b.WriteString(t.Note)
		b.WriteByte('\n')
	}
	return b.String()
}

// pad writes n spaces to b, none when n is not positive.
func pad(b *strings.Builder, n int) {
	for range n {
		b.WriteByte(' ')
	}
}

// CSV emits the table as comma-separated values with the row label in
// the first column.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("category")
	for _, lbl := range t.ColLabels {
		fmt.Fprintf(&b, ",%s", csvEscape(lbl))
	}
	b.WriteByte('\n')
	for r, lbl := range t.RowLabels {
		b.WriteString(csvEscape(lbl))
		for c := range t.ColLabels {
			v := t.Cells[r][c]
			if math.IsNaN(v) {
				b.WriteString(",")
			} else {
				fmt.Fprintf(&b, ",%g", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Line is one named series in a Series plot.
type Line struct {
	Name string
	Y    []float64
}

// Series is a family of lines over a shared x-axis — the shape of the
// paper's load-variation and utilization figures.
type Series struct {
	Title  string
	XLabel string
	X      []float64
	Lines  []Line
}

// Add appends a line; its length must match X.
func (s *Series) Add(name string, y []float64) {
	if len(y) != len(s.X) {
		panic(fmt.Sprintf("report: line %q has %d points, x-axis has %d", name, len(y), len(s.X)))
	}
	s.Lines = append(s.Lines, Line{Name: name, Y: y})
}

// Render draws the series as an aligned table with x in the first
// column.
func (s *Series) Render() string {
	title := s.Title
	if s.XLabel != "" {
		title = fmt.Sprintf("%s  (rows: %s)", s.Title, s.XLabel)
	}
	rows := make([]string, len(s.X))
	for i, x := range s.X {
		rows[i] = fmt.Sprintf("%g", x)
	}
	cols := make([]string, len(s.Lines))
	for li, l := range s.Lines {
		cols[li] = l.Name
	}
	t := NewTable(title, rows, cols)
	for li, l := range s.Lines {
		for i, v := range l.Y {
			t.Set(i, li, v)
		}
	}
	return t.Render()
}

// CSV emits the series with the x value in the first column.
func (s *Series) CSV() string {
	var b strings.Builder
	xl := s.XLabel
	if xl == "" {
		xl = "x"
	}
	b.WriteString(csvEscape(xl))
	for _, l := range s.Lines {
		fmt.Fprintf(&b, ",%s", csvEscape(l.Name))
	}
	b.WriteByte('\n')
	for i, x := range s.X {
		fmt.Fprintf(&b, "%g", x)
		for _, l := range s.Lines {
			fmt.Fprintf(&b, ",%g", l.Y[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
