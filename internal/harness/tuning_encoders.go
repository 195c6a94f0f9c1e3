package harness

import (
	"encoding/json"
	"fmt"
	"io"
)

// TuningReport encoders: the scorecard analogues of the Report encoders,
// pure functions of the report's deterministic fields (never wall-clock
// timings), so every format is byte-identical across runs, worker counts
// and machines.

// TuningEncoder renders an executed TuningReport in one output format.
type TuningEncoder interface {
	// Name is the format's registry name ("text", "csv", ...).
	Name() string
	// Encode writes the scorecard.
	Encode(w io.Writer, r *TuningReport) error
}

// NewTuningEncoder returns the named tuning encoder from the shared
// format registry ("text", "csv", "json", "markdown"). title is used by
// formats that carry a heading.
func NewTuningEncoder(name, title string) (TuningEncoder, error) {
	_, enc, err := newEncoders(name, title)
	return enc, err
}

// tuningTextEncoder renders aligned scorecard columns, one row per
// (configuration, predictor, controller); at several replicates each
// metric reads "mean±half".
type tuningTextEncoder struct{ title string }

func (tuningTextEncoder) Name() string { return "text" }

func (e tuningTextEncoder) Encode(w io.Writer, r *TuningReport) error {
	title := e.title
	if title == "" {
		title = "Adaptive tuning scorecard"
	}
	rw := NewRowWriter(w)
	rw.Printf("== %s ==  (size=%s, seed=%d, replicates=%d, budget=%.0f)\n\n",
		title, r.Size, r.Seed, r.Replicates, r.PhaseBudget)
	rw.Printf("%-34s %-11s %-9s %-15s %-15s %-11s %-9s %-9s\n",
		"configuration", "predictor", "ctl", "win-rate", "regret", "converge", "accuracy", "overhead")
	for _, c := range r.Configs {
		if len(c.Values) == 0 {
			rw.Printf("%-34s %-11s %-9s failed: %s\n",
				c.Config.Configuration.Label(), c.Config.Predictor, c.Config.Controller.Name,
				firstError(c.Errors))
			continue
		}
		rw.Printf("%-34s %-11s %-9s %-15s %-15s %-11s %-9s %-9s\n",
			c.Config.Configuration.Label(), c.Config.Predictor, c.Config.Controller.Name,
			banded(c.WinRate, r.Replicates), banded(c.Regret, r.Replicates),
			fmt.Sprintf("%.1f", c.Convergence.Mean),
			fmt.Sprintf("%.4f", c.Accuracy.Mean), fmt.Sprintf("%.4f", c.Overhead.Mean))
	}
	rw.Printf("\n")
	return rw.Err()
}

// banded renders "mean" at one replicate and "mean±half" beyond.
func banded(m TuningMetric, replicates int) string {
	if replicates <= 1 {
		return fmt.Sprintf("%.4f", m.Mean)
	}
	return fmt.Sprintf("%.4f±%.4f", m.Mean, m.Half)
}

// firstError returns the first error string, or a placeholder.
func firstError(errs []string) string {
	if len(errs) == 0 {
		return "no replicate produced a value"
	}
	return errs[0]
}

// tuningCSVEncoder renders one row per scorecard entry with every
// metric's mean and 95% CI half-width — the plottable long form.
type tuningCSVEncoder struct{}

func (tuningCSVEncoder) Name() string { return "csv" }

func (tuningCSVEncoder) Encode(w io.Writer, r *TuningReport) error {
	rw := NewRowWriter(w)
	rw.CSV("variant", "app", "procs", "detector", "predictor", "controller",
		"winrate_mean", "winrate_half95", "regret_mean", "regret_half95",
		"convergence_mean", "convergence_half95", "accuracy_mean", "accuracy_half95",
		"overhead_mean", "overhead_half95", "n")
	for _, c := range r.Configs {
		row := []any{variantName(c.Config.Variant), c.Config.App, c.Config.Procs, c.Config.Detector,
			c.Config.Predictor, c.Config.Controller.Name}
		if len(c.Values) == 0 {
			// Every replicate failed: empty metric fields (n=0), so a
			// consumer cannot mistake the failure for a 0% win rate.
			rw.CSV(append(row, "", "", "", "", "", "", "", "", "", "", 0)...)
			continue
		}
		rw.CSV(append(row,
			ftoa(c.WinRate.Mean), ftoa(c.WinRate.Half),
			ftoa(c.Regret.Mean), ftoa(c.Regret.Half),
			ftoa(c.Convergence.Mean), ftoa(c.Convergence.Half),
			ftoa(c.Accuracy.Mean), ftoa(c.Accuracy.Half),
			ftoa(c.Overhead.Mean), ftoa(c.Overhead.Half),
			c.WinRate.N)...)
	}
	return rw.Err()
}

// tuningJSONEncoder renders the whole scorecard as one document,
// including per-row errors and per-replicate raw values — the
// serialization a cross-machine merge would consume.
type tuningJSONEncoder struct{}

func (tuningJSONEncoder) Name() string { return "json" }

type jsonTuningMetric struct {
	Mean float64 `json:"mean"`
	Half float64 `json:"half95"`
}

type jsonTuningValue struct {
	WinRate     float64 `json:"win_rate"`
	Regret      float64 `json:"regret"`
	Convergence float64 `json:"convergence"`
	Accuracy    float64 `json:"accuracy"`
	Overhead    float64 `json:"overhead"`
}

type jsonTuningRow struct {
	Variant     string            `json:"variant"`
	App         string            `json:"app"`
	Procs       int               `json:"procs"`
	Detector    string            `json:"detector"`
	Predictor   string            `json:"predictor"`
	Controller  string            `json:"controller"`
	Trials      int               `json:"trials_per_config"`
	N           int               `json:"n"`
	Errors      []string          `json:"errors,omitempty"`
	WinRate     jsonTuningMetric  `json:"win_rate"`
	Regret      jsonTuningMetric  `json:"regret"`
	Convergence jsonTuningMetric  `json:"convergence"`
	Accuracy    jsonTuningMetric  `json:"accuracy"`
	Overhead    jsonTuningMetric  `json:"overhead"`
	Replicates  []jsonTuningValue `json:"replicates"`
}

type jsonTuningReport struct {
	Size        string          `json:"size"`
	Seed        uint64          `json:"seed"`
	Replicates  int             `json:"replicates"`
	PhaseBudget float64         `json:"phase_budget"`
	Predictors  []string        `json:"predictors"`
	Controllers []string        `json:"controllers"`
	Rows        []jsonTuningRow `json:"rows"`
}

func (tuningJSONEncoder) Encode(w io.Writer, r *TuningReport) error {
	doc := jsonTuningReport{
		Size:        r.Size.String(),
		Seed:        r.Seed,
		Replicates:  r.Replicates,
		PhaseBudget: r.PhaseBudget,
		Predictors:  append([]string{}, r.Predictors...),
		Rows:        make([]jsonTuningRow, 0, len(r.Configs)),
	}
	for _, c := range r.Controllers {
		doc.Controllers = append(doc.Controllers, c.Name)
	}
	for _, c := range r.Configs {
		row := jsonTuningRow{
			Variant:     variantName(c.Config.Variant),
			App:         c.Config.App,
			Procs:       c.Config.Procs,
			Detector:    c.Config.Detector.String(),
			Predictor:   c.Config.Predictor,
			Controller:  c.Config.Controller.Name,
			Trials:      c.Config.Controller.TrialsPerConfig,
			N:           c.WinRate.N,
			Errors:      c.Errors,
			WinRate:     jsonTuningMetric{c.WinRate.Mean, c.WinRate.Half},
			Regret:      jsonTuningMetric{c.Regret.Mean, c.Regret.Half},
			Convergence: jsonTuningMetric{c.Convergence.Mean, c.Convergence.Half},
			Accuracy:    jsonTuningMetric{c.Accuracy.Mean, c.Accuracy.Half},
			Overhead:    jsonTuningMetric{c.Overhead.Mean, c.Overhead.Half},
			Replicates:  make([]jsonTuningValue, 0, len(c.Values)),
		}
		for _, v := range c.Values {
			row.Replicates = append(row.Replicates, jsonTuningValue{
				WinRate: v.WinRate, Regret: v.Regret, Convergence: v.Convergence,
				Accuracy: v.Accuracy, Overhead: v.Overhead,
			})
		}
		doc.Rows = append(doc.Rows, row)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// tuningMarkdownEncoder renders the win-rate scorecard table.
type tuningMarkdownEncoder struct{ title string }

func (tuningMarkdownEncoder) Name() string { return "markdown" }

func (e tuningMarkdownEncoder) Encode(w io.Writer, r *TuningReport) error {
	title := e.title
	if title == "" {
		title = "Adaptive tuning scorecard"
	}
	rw := NewRowWriter(w)
	rw.Printf("## %s (size=%s, seed=%d, replicates=%d, budget=%.0f)\n\n",
		title, r.Size, r.Seed, r.Replicates, r.PhaseBudget)
	rw.MarkdownHeader("variant", "app", "procs", "detector", "predictor", "controller",
		"win-rate", "±CI", "regret", "converge", "accuracy", "overhead")
	// Each row is one Printf, not Markdown cells: the metric columns
	// need their own verbs, and per-cell Sprintf strings would double
	// the encoder's allocations on the served cache-hit path.
	for _, c := range r.Configs {
		if len(c.Values) == 0 {
			rw.Printf("| %s | %s | %d | %s | %s | %s | — | — | — | — | — | — |\n",
				variantName(c.Config.Variant), c.Config.App, c.Config.Procs, c.Config.Detector,
				c.Config.Predictor, c.Config.Controller.Name)
			continue
		}
		rw.Printf("| %s | %s | %d | %s | %s | %s | %.4f | %.4f | %+.2f%% | %.1f | %.4f | %.2f%% |\n",
			variantName(c.Config.Variant), c.Config.App, c.Config.Procs, c.Config.Detector,
			c.Config.Predictor, c.Config.Controller.Name,
			c.WinRate.Mean, c.WinRate.Half, 100*c.Regret.Mean,
			c.Convergence.Mean, c.Accuracy.Mean, 100*c.Overhead.Mean)
	}
	rw.Printf("\n")
	// A failed cell surfaces in every predictor × controller row of its
	// configuration; report each (configuration, error) once.
	seen := map[string]bool{}
	for _, c := range r.Configs {
		for _, msg := range c.Errors {
			key := c.Config.Configuration.Label() + "\x00" + msg
			if seen[key] {
				continue
			}
			seen[key] = true
			rw.Printf("- failed `%s`: %s\n", c.Config.Configuration.Label(), msg)
		}
	}
	return rw.Err()
}
