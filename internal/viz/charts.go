package viz

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named (x, y) sequence of a line chart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// RefLine is a horizontal reference (e.g. a battery-efficiency band).
type RefLine struct {
	Name  string
	Y     float64
	Color string
}

// LineChart renders one or more series against shared axes.
type LineChart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Refs   []RefLine
	W, H   int
	// YMin/YMax force the y range when non-nil.
	YMin, YMax *float64
}

// SVG renders the chart.
func (c LineChart) SVG() string {
	x0, x1 := math.Inf(1), math.Inf(-1)
	y0, y1 := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			x0 = math.Min(x0, s.X[i])
			x1 = math.Max(x1, s.X[i])
			y0 = math.Min(y0, s.Y[i])
			y1 = math.Max(y1, s.Y[i])
		}
	}
	for _, r := range c.Refs {
		y0 = math.Min(y0, r.Y)
		y1 = math.Max(y1, r.Y)
	}
	if math.IsInf(x0, 1) {
		x0, x1, y0, y1 = 0, 1, 0, 1
	}
	if y0 > 0 && y0 < y1*0.5 {
		y0 = 0 // anchor at zero unless the data is a narrow band
	}
	if c.YMin != nil {
		y0 = *c.YMin
	}
	if c.YMax != nil {
		y1 = *c.YMax
	}
	pad := (y1 - y0) * 0.05
	f := newFrame(c.Title, c.W, c.H, x0, x1, y0, y1+pad)
	f.axes(c.XLabel, c.YLabel, niceTicks(x0, x1, 6))

	var names []string
	for i, s := range c.Series {
		color := Palette[i%len(Palette)]
		names = append(names, s.Name)
		var path strings.Builder
		for j := range s.X {
			if j == 0 {
				fmt.Fprintf(&path, "M%.1f %.1f", f.px(s.X[j]), f.py(s.Y[j]))
			} else {
				fmt.Fprintf(&path, "L%.1f %.1f", f.px(s.X[j]), f.py(s.Y[j]))
			}
		}
		fmt.Fprintf(&f.b, `<path d="%s" fill="none" stroke="%s" stroke-width="1.6"/>`, esc(path.String()), esc(color))
	}
	for _, r := range c.Refs {
		color := r.Color
		if color == "" {
			color = "#888"
		}
		y := f.py(r.Y)
		fmt.Fprintf(&f.b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="%s" stroke-dasharray="5,4"/>`,
			marginL, y, f.w-marginR, y, esc(color))
		fmt.Fprintf(&f.b, `<text x="%d" y="%.1f" font-size="9" fill="%s" text-anchor="end">%s</text>`,
			f.w-marginR-2, y-3, esc(color), esc(r.Name))
	}
	f.legend(names)
	return f.done()
}

// BarSeries is one named value-per-category sequence.
type BarSeries struct {
	Name   string
	Values []float64
}

// BarChart renders grouped bars per category.
type BarChart struct {
	Title      string
	YLabel     string
	Categories []string
	Series     []BarSeries
	Refs       []RefLine
	W, H       int
}

// SVG renders the chart.
func (c BarChart) SVG() string {
	nCat, nSer := len(c.Categories), len(c.Series)
	y1 := 0.0
	for _, s := range c.Series {
		for _, v := range s.Values {
			y1 = math.Max(y1, v)
		}
	}
	for _, r := range c.Refs {
		y1 = math.Max(y1, r.Y)
	}
	if y1 == 0 {
		y1 = 1
	}
	f := newFrame(c.Title, c.W, c.H, 0, float64(nCat), 0, y1*1.08)
	f.axes("", c.YLabel, nil)

	group := f.plotW / float64(max(nCat, 1))
	barW := group * 0.8 / float64(max(nSer, 1))
	var names []string
	for si, s := range c.Series {
		color := Palette[si%len(Palette)]
		names = append(names, s.Name)
		for ci, v := range s.Values {
			if ci >= nCat {
				break
			}
			x := float64(marginL) + group*float64(ci) + group*0.1 + barW*float64(si)
			y := f.py(v)
			h := float64(f.h-marginB) - y
			if h < 0 {
				h = 0
			}
			fmt.Fprintf(&f.b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`,
				x, y, barW, h, esc(color))
		}
	}
	for ci, cat := range c.Categories {
		x := float64(marginL) + group*(float64(ci)+0.5)
		fmt.Fprintf(&f.b, `<text x="%.1f" y="%d" font-size="9" fill="#555" text-anchor="middle">%s</text>`,
			x, f.h-marginB+14, esc(cat))
	}
	for _, r := range c.Refs {
		color := r.Color
		if color == "" {
			color = "#888"
		}
		y := f.py(r.Y)
		fmt.Fprintf(&f.b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="%s" stroke-dasharray="5,4"/>`,
			marginL, y, f.w-marginR, y, esc(color))
		fmt.Fprintf(&f.b, `<text x="%d" y="%.1f" font-size="9" fill="%s" text-anchor="end">%s</text>`,
			f.w-marginR-2, y-3, esc(color), esc(r.Name))
	}
	f.legend(names)
	return f.done()
}
