package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"dsmphase/internal/coherence"
	"dsmphase/internal/stats"
)

// Report encoders. Encoders are pure functions of the Report's
// deterministic fields (never the wall-clock timings), so every format
// is byte-identical across runs, worker counts and machines. The text
// encoder at one replicate renders the WriteFigure tables; the others
// are grid-shaped formats with bands and per-configuration rows.
//
// Both report families — Report here, TuningReport in
// tuning_encoders.go — share one format registry (newEncoders) and one
// line writer (RowWriter), so a format name means the same thing for
// every grid and NamedGrid.Render can pick the family alone.

// Encoder renders an executed Report in one output format.
type Encoder interface {
	// Name is the format's registry name ("text", "csv", ...).
	Name() string
	// Encode writes the report.
	Encode(w io.Writer, r *Report) error
}

// newEncoders is the format registry shared by both encoder families:
// the named format's encoder for a Report and for a TuningReport.
func newEncoders(name, title string) (Encoder, TuningEncoder, error) {
	switch name {
	case "text":
		return TextEncoder{Title: title}, tuningTextEncoder{title: title}, nil
	case "csv":
		return CSVEncoder{}, tuningCSVEncoder{}, nil
	case "json":
		return JSONEncoder{}, tuningJSONEncoder{}, nil
	case "markdown", "md":
		return MarkdownEncoder{Title: title}, tuningMarkdownEncoder{title: title}, nil
	default:
		return nil, nil, fmt.Errorf("harness: unknown encoder %q (want %v)", name, EncoderNames())
	}
}

// NewEncoder returns the named encoder ("text", "csv", "json",
// "markdown"). title is used by formats that carry a heading.
func NewEncoder(name, title string) (Encoder, error) {
	enc, _, err := newEncoders(name, title)
	return enc, err
}

// EncoderNames returns the registered format names, sorted — the same
// list for both encoder families.
func EncoderNames() []string {
	return []string{"csv", "json", "markdown", "text"}
}

// RowWriter writes report lines and keeps the first write error: every
// later write is skipped, so an encoder — or a command rendering a
// whole report — checks once, at the end, with Err. It is itself an
// io.Writer (returning the kept error), so it can wrap any destination
// a renderer is handed.
type RowWriter struct {
	w   io.Writer
	buf []byte // reused line buffer
	err error
}

// NewRowWriter wraps w.
func NewRowWriter(w io.Writer) *RowWriter { return &RowWriter{w: w} }

// Write implements io.Writer.
func (rw *RowWriter) Write(p []byte) (int, error) {
	if rw.err != nil {
		return 0, rw.err
	}
	n, err := rw.w.Write(p)
	rw.err = err
	return n, err
}

// Printf writes one formatted piece of output.
func (rw *RowWriter) Printf(format string, args ...any) {
	if rw.err == nil {
		rw.buf = fmt.Appendf(rw.buf[:0], format, args...)
		rw.Write(rw.buf)
	}
}

// CSV writes one comma-separated row; each field prints as with %v.
func (rw *RowWriter) CSV(fields ...any) { rw.row("", ",", "", fields) }

// Markdown writes one markdown table row; each cell prints as with %v.
func (rw *RowWriter) Markdown(cells ...any) { rw.row("| ", " | ", " |", cells) }

// MarkdownHeader writes a markdown table's header row and separator.
func (rw *RowWriter) MarkdownHeader(cols ...any) {
	rw.Markdown(cols...)
	rw.Printf("|%s\n", strings.Repeat("---|", len(cols)))
}

// row writes fields between open and close, joined by sep, as one line.
func (rw *RowWriter) row(open, sep, close string, fields []any) {
	if rw.err != nil {
		return
	}
	b := append(rw.buf[:0], open...)
	for i, f := range fields {
		if i > 0 {
			b = append(b, sep...)
		}
		switch v := f.(type) {
		case string:
			b = append(b, v...)
		case int:
			b = strconv.AppendInt(b, int64(v), 10)
		default:
			b = fmt.Append(b, v)
		}
	}
	rw.buf = append(append(b, close...), '\n')
	rw.Write(rw.buf)
}

// Err returns the first write error, or nil.
func (rw *RowWriter) Err() error { return rw.err }

// TextEncoder renders the classic figure tables. At one replicate the
// output is WriteFigure's: one "phases cov thBBV thDDS" block per
// curve. At several replicates each configuration becomes a band table
// with mean and 95% CI columns.
type TextEncoder struct {
	// Title is the figure heading ("Figure 2: ...").
	Title string
}

// Name implements Encoder.
func (TextEncoder) Name() string { return "text" }

// Encode implements Encoder.
func (e TextEncoder) Encode(w io.Writer, r *Report) error {
	if r.Replicates <= 1 {
		return WriteFigure(w, e.Title, r.Curves())
	}
	rw := NewRowWriter(w)
	rw.Printf("== %s ==\n\n", e.Title)
	for _, c := range r.Configs {
		if len(c.Band.Points) == 0 {
			continue
		}
		rw.Printf("# %s  (replicates=%d, 95%% CI)\n", c.Config.Label(), len(c.Curves))
		rw.Printf("%-10s %-10s %-10s %-10s %-4s\n", "phases", "mean", "lo95", "hi95", "n")
		for _, p := range c.Band.Points {
			rw.Printf("%-10.2f %-10.4f %-10.4f %-10.4f %-4d\n", p.Phases, p.Mean, p.Lo, p.Hi, p.N)
		}
		rw.Printf("\n")
	}
	return rw.Err()
}

// CSVEncoder renders one row per band point, band metadata in columns —
// the plottable long form.
type CSVEncoder struct{}

// Name implements Encoder.
func (CSVEncoder) Name() string { return "csv" }

// Encode implements Encoder. The protocol column appears only when the
// report sweeps a non-default coherence backend, so default-protocol
// reports keep the pre-seam header byte for byte.
func (CSVEncoder) Encode(w io.Writer, r *Report) error {
	rw := NewRowWriter(w)
	protocol := reportSweepsProtocol(r)
	// lead is a row's configuration columns, protocol included when swept.
	lead := func(vals ...any) []any {
		if !protocol {
			vals = vals[:len(vals)-1]
		}
		return vals
	}
	rw.CSV(append(lead("variant", "app", "procs", "detector", "protocol"),
		"phases", "cov_mean", "cov_lo95", "cov_hi95", "n")...)
	for _, c := range r.Configs {
		for _, p := range c.Band.Points {
			rw.CSV(append(lead(variantName(c.Config.Variant), c.Config.App, c.Config.Procs,
				c.Config.Detector, c.Config.Protocol),
				ftoa(p.Phases), ftoa(p.Mean), ftoa(p.Lo), ftoa(p.Hi), p.N)...)
		}
	}
	return rw.Err()
}

// reportSweepsProtocol reports whether any configuration of the report
// runs a non-default coherence backend.
func reportSweepsProtocol(r *Report) bool {
	for _, c := range r.Configs {
		if c.Config.Protocol != coherence.KindDirectory {
			return true
		}
	}
	return false
}

// JSONEncoder renders the whole report as one document, including
// per-configuration errors — the serialization cross-machine plan
// sharding will consume.
type JSONEncoder struct{}

// Name implements Encoder.
func (JSONEncoder) Name() string { return "json" }

type jsonBandPoint struct {
	Phases float64 `json:"phases"`
	Mean   float64 `json:"mean"`
	Lo     float64 `json:"lo95"`
	Hi     float64 `json:"hi95"`
	N      int     `json:"n"`
}

type jsonConfig struct {
	Variant  string          `json:"variant"`
	App      string          `json:"app"`
	Procs    int             `json:"procs"`
	Detector string          `json:"detector"`
	Protocol string          `json:"protocol,omitempty"`
	Curves   int             `json:"curves"`
	Errors   []string        `json:"errors,omitempty"`
	Band     []jsonBandPoint `json:"band"`
	// Spread surfaces the raw across-replicate dispersion at the paper's
	// 25-phase budget (present only at replicates > 1), so consumers can
	// judge CI overlap from the replicates themselves rather than the
	// summarized band alone.
	Spread *jsonSpread `json:"replicate_spread,omitempty"`
}

// jsonSpread is one configuration's per-replicate CoV@25 values (finite
// replicates only, replicate order) and their standard deviation.
type jsonSpread struct {
	Cov25  []float64 `json:"cov25"`
	Stddev float64   `json:"stddev"`
}

type jsonReport struct {
	Size       string       `json:"size"`
	Seed       uint64       `json:"seed"`
	Replicates int          `json:"replicates"`
	Configs    []jsonConfig `json:"configs"`
}

// Encode implements Encoder.
func (JSONEncoder) Encode(w io.Writer, r *Report) error {
	doc := jsonReport{
		Size:       r.Size.String(),
		Seed:       r.Seed,
		Replicates: r.Replicates,
		Configs:    make([]jsonConfig, 0, len(r.Configs)),
	}
	for _, c := range r.Configs {
		jc := jsonConfig{
			Variant:  variantName(c.Config.Variant),
			App:      c.Config.App,
			Procs:    c.Config.Procs,
			Detector: c.Config.Detector.String(),
			Curves:   len(c.Curves),
			Band:     make([]jsonBandPoint, 0, len(c.Band.Points)),
		}
		if c.Config.Protocol != coherence.KindDirectory {
			jc.Protocol = c.Config.Protocol.String()
		}
		for _, res := range c.Results {
			if res.Err != nil {
				jc.Errors = append(jc.Errors, res.Err.Error())
			}
		}
		for _, p := range c.Band.Points {
			jc.Band = append(jc.Band, jsonBandPoint{Phases: p.Phases, Mean: p.Mean, Lo: p.Lo, Hi: p.Hi, N: p.N})
		}
		if r.Replicates > 1 {
			// +Inf (an unreachable budget) is not representable in JSON;
			// only finite replicates contribute, matching the band's N.
			spread := &jsonSpread{Cov25: []float64{}}
			for _, curve := range c.Curves {
				if v := curve.Curve.CoVAt(25); !math.IsInf(v, 1) {
					spread.Cov25 = append(spread.Cov25, v)
				}
			}
			spread.Stddev = stats.StdDev(spread.Cov25)
			jc.Spread = spread
		}
		doc.Configs = append(doc.Configs, jc)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// MarkdownEncoder renders the ablation scorecard: one row per
// configuration with its CoV at the paper's 10- and 25-phase budgets
// and the change against the baseline variant of the same (app, procs,
// detector) point.
type MarkdownEncoder struct {
	// Title is the scorecard heading; empty derives one.
	Title string
}

// Name implements Encoder.
func (MarkdownEncoder) Name() string { return "markdown" }

// Encode implements Encoder.
func (e MarkdownEncoder) Encode(w io.Writer, r *Report) error {
	title := e.Title
	if title == "" {
		title = "Ablation scorecard"
	}
	rw := NewRowWriter(w)
	rw.Printf("## %s (size=%s, seed=%d, replicates=%d)\n\n", title, r.Size, r.Seed, r.Replicates)
	rw.MarkdownHeader("variant", "app", "procs", "detector", "CoV@10", "CoV@25", "±CI@25", "vs baseline")
	type point struct {
		app      string
		procs    int
		detector string
	}
	baseline := map[point]float64{}
	for _, c := range r.Configs {
		if variantName(c.Config.Variant) == "baseline" {
			baseline[point{c.Config.App, c.Config.Procs, detectorCell(c.Config)}] = c.Band.MeanAt(25)
		}
	}
	for _, c := range r.Configs {
		name := variantName(c.Config.Variant)
		c25 := c.Band.MeanAt(25)
		delta := "—"
		if base, ok := baseline[point{c.Config.App, c.Config.Procs, detectorCell(c.Config)}]; ok {
			switch {
			case name == "baseline":
				// The reference row itself.
			case math.IsInf(base, 1) || math.IsInf(c25, 1) || base == 0:
				// No finite reference to diff against.
			default:
				delta = fmt.Sprintf("%+.1f%%", 100*(c25-base)/base)
			}
		}
		rw.Markdown(name, c.Config.App, c.Config.Procs, detectorCell(c.Config),
			covCell(c.Band.MeanAt(10)), covCell(c25), covCell(c.Band.HalfAt(25)), delta)
	}
	rw.Printf("\n")
	return rw.Err()
}

// detectorCell renders a configuration's detector column, suffixing the
// coherence backend when it is not the default directory engine (so
// directory-only scorecards keep the pre-seam cells).
func detectorCell(c Configuration) string {
	if c.Protocol != coherence.KindDirectory {
		return c.Detector.String() + "/" + c.Protocol.String()
	}
	return c.Detector.String()
}

// variantName returns a variant's report name; the zero variant reads
// as the baseline.
func variantName(v Variant) string {
	if v.Name == "" {
		return "baseline"
	}
	return v.Name
}

// covCell formats a CoV value for markdown, with an em dash for an
// unreachable budget.
func covCell(v float64) string {
	if math.IsInf(v, 1) {
		return "—"
	}
	return fmt.Sprintf("%.4f", v)
}

// ftoa formats a float for CSV with the shortest exact representation.
func ftoa(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
