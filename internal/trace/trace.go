// Package trace defines the record schema produced by the fleet simulator
// and consumed by the capacity-planning pipeline, together with CSV and
// JSON-Lines codecs.
//
// The paper's pipeline ingested 30 PB of performance-counter traces sampled
// with a 100 ns timer and averaged over 120-second windows. Each Record here
// is one such window for one server: the offered workload, the resource
// counters, the QoS observation and the availability state.
package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Record is one 120-second observation window for one server.
type Record struct {
	// Tick is the window index since the start of the trace.
	Tick int `json:"tick"`
	// DC is the datacenter name.
	DC string `json:"dc"`
	// Pool is the micro-service server pool name.
	Pool string `json:"pool"`
	// Server is the server identifier, unique within a pool+DC.
	Server string `json:"server"`
	// Generation is the hardware generation of the server.
	Generation string `json:"generation"`
	// Online reports whether the server was serving during this window.
	Online bool `json:"online"`

	// RPS is the request rate served by this server in the window.
	RPS float64 `json:"rps"`
	// CPUPct is the mean CPU utilisation percentage (0-100).
	CPUPct float64 `json:"cpu_pct"`
	// LatencyMs is the 95th-percentile request latency in milliseconds.
	LatencyMs float64 `json:"latency_ms"`

	// Secondary resource counters (the paper's Figure 2 set).
	NetBytes  float64 `json:"net_bytes"`
	NetPkts   float64 `json:"net_pkts"`
	MemPages  float64 `json:"mem_pages"`
	DiskQueue float64 `json:"disk_queue"`
	DiskRead  float64 `json:"disk_read"`
	Errors    float64 `json:"errors"`
}

// Header is the CSV column order used by WriteCSV/ReadCSV.
var Header = []string{
	"tick", "dc", "pool", "server", "generation", "online",
	"rps", "cpu_pct", "latency_ms",
	"net_bytes", "net_pkts", "mem_pages", "disk_queue", "disk_read", "errors",
}

// fields renders the record as CSV fields in Header order.
func (r Record) fields() []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return []string{
		strconv.Itoa(r.Tick), r.DC, r.Pool, r.Server, r.Generation,
		strconv.FormatBool(r.Online),
		f(r.RPS), f(r.CPUPct), f(r.LatencyMs),
		f(r.NetBytes), f(r.NetPkts), f(r.MemPages), f(r.DiskQueue), f(r.DiskRead), f(r.Errors),
	}
}

// parseRecord decodes CSV fields in Header order.
func parseRecord(fields []string) (Record, error) {
	if len(fields) != len(Header) {
		return Record{}, fmt.Errorf("trace: %d fields, want %d", len(fields), len(Header))
	}
	var r Record
	var err error
	if r.Tick, err = strconv.Atoi(fields[0]); err != nil {
		return Record{}, fmt.Errorf("trace: bad tick %q: %w", fields[0], err)
	}
	r.DC, r.Pool, r.Server, r.Generation = fields[1], fields[2], fields[3], fields[4]
	if r.Online, err = strconv.ParseBool(fields[5]); err != nil {
		return Record{}, fmt.Errorf("trace: bad online %q: %w", fields[5], err)
	}
	nums := []*float64{
		&r.RPS, &r.CPUPct, &r.LatencyMs,
		&r.NetBytes, &r.NetPkts, &r.MemPages, &r.DiskQueue, &r.DiskRead, &r.Errors,
	}
	for i, dst := range nums {
		v, err := strconv.ParseFloat(fields[6+i], 64)
		if err != nil {
			return Record{}, fmt.Errorf("trace: bad %s %q: %w", Header[6+i], fields[6+i], err)
		}
		*dst = v
	}
	return r, nil
}

// CSVWriter streams records as CSV with a header row.
type CSVWriter struct {
	w           *csv.Writer
	wroteHeader bool
}

// NewCSVWriter wraps w in a CSV record writer.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: csv.NewWriter(w)}
}

// Write appends one record, emitting the header first if needed.
func (cw *CSVWriter) Write(r Record) error {
	if !cw.wroteHeader {
		if err := cw.w.Write(Header); err != nil {
			return fmt.Errorf("trace: write header: %w", err)
		}
		cw.wroteHeader = true
	}
	if err := cw.w.Write(r.fields()); err != nil {
		return fmt.Errorf("trace: write record: %w", err)
	}
	return nil
}

// Flush flushes buffered output and reports any deferred write error.
func (cw *CSVWriter) Flush() error {
	cw.w.Flush()
	if err := cw.w.Error(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// JSONLWriter streams records as JSON Lines.
type JSONLWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewJSONLWriter wraps w in a JSONL record writer.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	bw := bufio.NewWriter(w)
	return &JSONLWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends one record as a JSON line.
func (jw *JSONLWriter) Write(r Record) error {
	if err := jw.enc.Encode(r); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return nil
}

// Flush flushes buffered output.
func (jw *JSONLWriter) Flush() error {
	if err := jw.bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// ReadJSONL decodes all records from a JSON Lines stream.
func ReadJSONL(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(r)
	var out []Record
	for {
		var rec Record
		err := dec.Decode(&rec)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: decode line %d: %w", len(out)+1, err)
		}
		out = append(out, rec)
	}
}
