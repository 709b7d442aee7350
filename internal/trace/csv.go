package trace

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteCSV emits "cycle,<series...>" rows at every change point, matching
// the artifact's exported-waveform format. Every series the recorder
// created has a column, including one that never recorded a point (it
// reads 0 throughout).
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"cycle"}, r.Names()...)
	if err := cw.Write(header); err != nil {
		return err
	}
	var err error
	row := make([]string, len(header))
	r.walk(func(c uint64, cur []float64) {
		if err != nil {
			return
		}
		row[0] = strconv.FormatUint(c, 10)
		for i, v := range cur {
			row[i+1] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		err = cw.Write(row)
	})
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
