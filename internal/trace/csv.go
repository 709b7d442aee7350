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
	for _, c := range r.changeCycles() {
		row := make([]string, 0, len(header))
		row = append(row, strconv.FormatUint(c, 10))
		for _, name := range r.order {
			row = append(row, strconv.FormatFloat(r.byName[name].At(c), 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
