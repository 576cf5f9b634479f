package dataset

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"coresetclustering/internal/metric"
)

// ReadCSV parses a dataset from CSV-like input: one point per line,
// comma-separated floating-point coordinates. Blank lines and lines starting
// with '#' are skipped. Every point must have the same dimensionality.
func ReadCSV(r io.Reader) (metric.Dataset, error) {
	if r == nil {
		return nil, errors.New("dataset: nil reader")
	}
	var ds metric.Dataset
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		p := make(metric.Point, 0, len(fields))
		for _, f := range fields {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
			}
			p = append(p, v)
		}
		if len(p) == 0 {
			continue
		}
		if len(ds) > 0 && len(p) != ds.Dim() {
			return nil, fmt.Errorf("dataset: line %d has %d coordinates, want %d", lineNo, len(p), ds.Dim())
		}
		ds = append(ds, p)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading CSV: %w", err)
	}
	if len(ds) == 0 {
		return nil, errors.New("dataset: no points found in CSV input")
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// WriteCSV writes the dataset as CSV: one point per line, comma-separated
// coordinates with full float64 precision.
func WriteCSV(w io.Writer, ds metric.Dataset) error {
	if w == nil {
		return errors.New("dataset: nil writer")
	}
	bw := bufio.NewWriter(w)
	for _, p := range ds {
		for i, c := range p {
			if i > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(c, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveCSVFile writes a dataset to a CSV file on disk, creating or truncating
// it.
func SaveCSVFile(path string, ds metric.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if err := WriteCSV(f, ds); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
