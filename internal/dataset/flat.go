package dataset

import (
	"errors"
	"fmt"
	"io"
	"os"

	"coresetclustering/internal/metric"
)

// This file teaches the dataset loader the binary flat-buffer layout
// (metric.Flat, magic "KCFL"): a contiguous float64 buffer that loads without
// per-point allocations and hands the algorithms cache-friendly memory.
// Text (CSV) parsing is unchanged and remains the fallback.

// SaveFlatFile writes the dataset to path in the binary flat-buffer format.
func SaveFlatFile(path string, ds metric.Dataset) error {
	f, err := metric.FlatFromDataset(ds)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	return metric.SaveFlatFile(path, f)
}

// LoadFile reads a dataset from path, auto-detecting the format: files
// starting with the flat-buffer magic load as metric.Flat (contiguous
// storage, no text parsing); anything else falls back to the CSV reader
// unchanged.
func LoadFile(path string) (metric.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	var magic [4]byte
	n, err := io.ReadFull(f, magic[:])
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if n == len(magic) && string(magic[:]) == metric.FlatMagic {
		flat, err := metric.ReadFlat(f)
		if err != nil {
			return nil, err
		}
		ds := flat.Dataset()
		if len(ds) == 0 {
			return nil, errors.New("dataset: flat file holds no points")
		}
		return ds, nil
	}
	return ReadCSV(f)
}
