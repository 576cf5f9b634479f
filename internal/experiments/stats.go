package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// The reporting toolkit of the figures: summary statistics with 95%
// confidence intervals (the paper reports all figures as averages over at
// least 10 runs with 95% CIs), throughput computation, and plain-text table
// rendering.

// Summary holds the summary statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	// CI95 is the half-width of the 95% confidence interval of the mean
	// under a normal approximation (1.96 * stderr).
	CI95 float64
	Min  float64
	Max  float64
}

// Summarize computes summary statistics over the sample. It returns an error
// for an empty sample.
func Summarize(values []float64) (Summary, error) {
	if len(values) == 0 {
		return Summary{}, errors.New("experiments: empty sample")
	}
	s := Summary{N: len(values), Min: values[0], Max: values[0]}
	var sum float64
	for _, v := range values {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(values))
	if len(values) > 1 {
		var ss float64
		for _, v := range values {
			d := v - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(len(values)-1))
		s.CI95 = 1.96 * s.StdDev / math.Sqrt(float64(len(values)))
	}
	return s, nil
}

// String renders the summary as "mean ± ci95".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g", s.Mean, s.CI95)
}

// Throughput returns the processing rate in points per second. A non-positive
// duration yields 0.
func Throughput(points int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(points) / elapsed.Seconds()
}

// Ratio returns a/b, or +Inf when b is zero and a is positive, or 1 when both
// are zero. It is the empirical approximation-ratio helper: radius divided by
// the best radius ever found for the configuration.
func Ratio(a, b float64) float64 {
	switch {
	case b != 0:
		return a / b
	case a == 0:
		return 1
	default:
		return math.Inf(1)
	}
}

// Table is a simple fixed-column text table used by the experiment drivers to
// print figure reproductions in the same row/series layout as the paper.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v and padded/truncated to
// the number of columns.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = formatCell(cells[i])
		}
	}
	t.rows = append(t.rows, row)
}

func formatCell(v interface{}) string {
	switch x := v.(type) {
	case float64:
		return fmt.Sprintf("%.4g", x)
	case float32:
		return fmt.Sprintf("%.4g", x)
	case time.Duration:
		return x.Round(time.Millisecond).String()
	case Summary:
		return x.String()
	default:
		return fmt.Sprint(v)
	}
}

// Render writes the table to w as aligned plain text.
func (t *Table) Render(w io.Writer) error {
	if w == nil {
		return errors.New("experiments: nil writer")
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string (for tests and logs).
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}
