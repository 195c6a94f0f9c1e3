package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"dsmphase/internal/coherence"
	"dsmphase/internal/stats"
)

// Report encoders. Encoders are pure functions of the Report's
// deterministic fields (never the wall-clock timings), so every format
// is byte-identical across runs, worker counts and machines. The text
// encoder at one replicate renders the WriteFigure tables; the others
// are grid-shaped formats with bands and per-configuration rows.

// Encoder renders an executed Report in one output format.
type Encoder interface {
	// Name is the format's registry name ("text", "csv", ...).
	Name() string
	// Encode writes the report.
	Encode(w io.Writer, r *Report) error
}

// NewEncoder returns the named encoder ("text", "csv", "json",
// "markdown"). title is used by formats that carry a heading.
func NewEncoder(name, title string) (Encoder, error) {
	switch name {
	case "text":
		return TextEncoder{Title: title}, nil
	case "csv":
		return CSVEncoder{}, nil
	case "json":
		return JSONEncoder{}, nil
	case "markdown", "md":
		return MarkdownEncoder{Title: title}, nil
	default:
		return nil, fmt.Errorf("harness: unknown encoder %q (want %v)", name, EncoderNames())
	}
}

// EncoderNames returns the registered encoder names, sorted.
func EncoderNames() []string {
	names := []string{"csv", "json", "markdown", "text"}
	sort.Strings(names)
	return names
}

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
	if _, err := fmt.Fprintf(w, "== %s ==\n\n", e.Title); err != nil {
		return err
	}
	for _, c := range r.Configs {
		if len(c.Band.Points) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "# %s  (replicates=%d, 95%% CI)\n", c.Config.Label(), len(c.Curves)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%-10s %-10s %-10s %-10s %-4s\n", "phases", "mean", "lo95", "hi95", "n"); err != nil {
			return err
		}
		for _, p := range c.Band.Points {
			if _, err := fmt.Fprintf(w, "%-10.2f %-10.4f %-10.4f %-10.4f %-4d\n",
				p.Phases, p.Mean, p.Lo, p.Hi, p.N); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
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
	if reportSweepsProtocol(r) {
		if _, err := fmt.Fprintln(w, "variant,app,procs,detector,protocol,phases,cov_mean,cov_lo95,cov_hi95,n"); err != nil {
			return err
		}
		for _, c := range r.Configs {
			for _, p := range c.Band.Points {
				if _, err := fmt.Fprintf(w, "%s,%s,%d,%s,%s,%s,%s,%s,%s,%d\n",
					variantName(c.Config.Variant), c.Config.App, c.Config.Procs, c.Config.Detector,
					c.Config.Protocol, ftoa(p.Phases), ftoa(p.Mean), ftoa(p.Lo), ftoa(p.Hi), p.N); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if _, err := fmt.Fprintln(w, "variant,app,procs,detector,phases,cov_mean,cov_lo95,cov_hi95,n"); err != nil {
		return err
	}
	for _, c := range r.Configs {
		for _, p := range c.Band.Points {
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%s,%s,%s,%s,%s,%d\n",
				variantName(c.Config.Variant), c.Config.App, c.Config.Procs, c.Config.Detector,
				ftoa(p.Phases), ftoa(p.Mean), ftoa(p.Lo), ftoa(p.Hi), p.N); err != nil {
				return err
			}
		}
	}
	return nil
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
	if _, err := fmt.Fprintf(w, "## %s (size=%s, seed=%d, replicates=%d)\n\n",
		title, r.Size, r.Seed, r.Replicates); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "| variant | app | procs | detector | CoV@10 | CoV@25 | ±CI@25 | vs baseline |"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|"); err != nil {
		return err
	}
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
		if _, err := fmt.Fprintf(w, "| %s | %s | %d | %s | %s | %s | %s | %s |\n",
			name, c.Config.App, c.Config.Procs, detectorCell(c.Config),
			covCell(c.Band.MeanAt(10)), covCell(c25), covCell(c.Band.HalfAt(25)), delta); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
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
