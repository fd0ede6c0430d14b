// Package harness provides the experiment plumbing shared by
// cmd/experiments, the campaign layer and the stonesim CLI: trial
// statistics, scaling-law diagnostics (is a series Θ(log n), Θ(log² n),
// …?), and fixed-width table rendering for the experiment reports.
package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Stats summarizes a sample.
type Stats struct {
	N                int
	Mean, Std        float64
	Min, Median, P90 float64
	Max              float64
}

// Summarize computes sample statistics. An empty sample yields zeros.
func Summarize(xs []float64) Stats {
	s := Stats{N: len(xs)}
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(s.N)
	varSum := 0.0
	for _, x := range sorted {
		d := x - s.Mean
		varSum += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(varSum / float64(s.N-1))
	}
	s.Min = sorted[0]
	s.Max = sorted[s.N-1]
	s.Median = quantile(sorted, 0.5)
	s.P90 = quantile(sorted, 0.9)
	return s
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ScalingLaw is a candidate asymptotic shape for a measured series.
type ScalingLaw struct {
	// Name labels the law in reports, e.g. "log²n".
	Name string
	// F evaluates the law at n.
	F func(n int) float64
}

// StandardLaws returns the candidate shapes relevant to the paper's
// claims: constant, log n, log² n, √n and n.
func StandardLaws() []ScalingLaw {
	return []ScalingLaw{
		{Name: "1", F: func(n int) float64 { return 1 }},
		{Name: "log n", F: func(n int) float64 { return math.Log2(float64(n)) }},
		{Name: "log² n", F: func(n int) float64 { l := math.Log2(float64(n)); return l * l }},
		{Name: "√n", F: func(n int) float64 { return math.Sqrt(float64(n)) }},
		{Name: "n", F: func(n int) float64 { return float64(n) }},
	}
}

// FitQuality reports how well y(n) ≈ c·law(n) explains a series: the
// fitted constant and the spread of the per-point ratios y/law(n)
// (max/min — 1 is a perfect fit; the smallest spread wins).
type FitQuality struct {
	Law    string
	C      float64
	Spread float64
}

// FitSeries evaluates every law against the measured series and returns
// the qualities sorted best-first. Points with n < 4 are ignored (the
// asymptotic shapes are indistinguishable there).
func FitSeries(ns []int, ys []float64, laws []ScalingLaw) []FitQuality {
	if len(ns) != len(ys) {
		panic("harness: series length mismatch")
	}
	out := make([]FitQuality, 0, len(laws))
	for _, law := range laws {
		var ratios []float64
		for i, n := range ns {
			if n < 4 {
				continue
			}
			f := law.F(n)
			if f <= 0 {
				continue
			}
			ratios = append(ratios, ys[i]/f)
		}
		if len(ratios) == 0 {
			continue
		}
		st := Summarize(ratios)
		spread := math.Inf(1)
		if st.Min > 0 {
			spread = st.Max / st.Min
		}
		out = append(out, FitQuality{Law: law.Name, C: st.Mean, Spread: spread})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spread < out[j].Spread })
	return out
}

// BestLaw returns the name of the best-fitting law for the series.
func BestLaw(ns []int, ys []float64) string {
	fits := FitSeries(ns, ys, StandardLaws())
	if len(fits) == 0 {
		return "?"
	}
	return fits[0].Law
}

// Table is a fixed-width report table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes are free-text lines printed under the table.
	Notes []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: three significant decimals for
// small magnitudes, fewer for large ones.
func FormatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Render writes the table in a fixed-width layout.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n\n", t.Title)
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			fmt.Fprintf(&b, " %-*s |", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	b.WriteString("|")
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2))
		b.WriteString("|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "\n%s\n", note)
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// GeoSizes returns geometrically spaced sizes from lo to hi (inclusive
// when the progression lands on hi), multiplying by factor each step.
func GeoSizes(lo, hi, factor int) []int {
	if factor < 2 {
		factor = 2
	}
	var out []int
	for n := lo; n <= hi; n *= factor {
		out = append(out, n)
	}
	return out
}

// ASCIIChart renders series as a fixed-size ASCII scatter chart with a
// logarithmic x-axis (network sizes) — the textual analogue of a
// run-time-vs-n figure. Each series is drawn with its own glyph.
func ASCIIChart(title string, ns []int, series map[string][]float64, width, height int) string {
	if width < 16 {
		width = 60
	}
	if height < 4 {
		height = 16
	}
	glyphs := []byte{'*', 'o', '+', 'x', '#', '@'}
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)

	maxY := 0.0
	for _, ys := range series {
		for _, y := range ys {
			if y > maxY {
				maxY = y
			}
		}
	}
	if maxY == 0 || len(ns) < 2 {
		return title + ": (no data)\n"
	}
	minX := math.Log2(float64(ns[0]))
	maxX := math.Log2(float64(ns[len(ns)-1]))
	if maxX == minX {
		maxX = minX + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, name := range names {
		g := glyphs[si%len(glyphs)]
		ys := series[name]
		for i, n := range ns {
			if i >= len(ys) {
				break
			}
			col := int((math.Log2(float64(n)) - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int(ys[i]/maxY*float64(height-1))
			if row >= 0 && row < height && col >= 0 && col < width {
				grid[row][col] = g
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s  (y: 0..%s, x: n=%d..%d log-scale)\n", title, FormatFloat(maxY), ns[0], ns[len(ns)-1])
	for _, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("  +" + strings.Repeat("-", width) + "\n   ")
	for si, name := range names {
		fmt.Fprintf(&b, "%c=%s  ", glyphs[si%len(glyphs)], name)
	}
	b.WriteString("\n")
	return b.String()
}
