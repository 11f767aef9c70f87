package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// metricName is the form every reported metric name takes.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// report is the benchmark's result line.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
	// Notes are human-readable lines printed before the result.
	Notes []string
}

func (r *report) add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, metric{name, value, unit})
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect and records why.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.note("FAIL: "+format, args...)
}

// write prints the notes, a metric table, and, as the last line, the JSON
// result object.
func (r *report) write(w io.Writer) error {
	for _, n := range r.Notes {
		fmt.Fprintln(w, n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.Metrics))
	for _, m := range r.Metrics {
		if !metricName.MatchString(m.Name) || m.Unit == "" {
			return fmt.Errorf("metric %q has a bad name or no unit", m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %q is %v", m.Name, m.Value)
		}
		if _, dup := ms[m.Name]; dup {
			return fmt.Errorf("metric %q reported twice", m.Name)
		}
		ms[m.Name] = value{m.Value, m.Unit}
		fmt.Fprintf(w, "%-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
