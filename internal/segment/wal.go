package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"sciborq/internal/column"
	"sciborq/internal/faultinject"
	"sciborq/internal/table"
)

// Write-ahead log. One record per Load batch, appended and fsynced
// before the batch is acknowledged, so an acknowledged batch survives
// any crash. Record grammar (all integers little-endian):
//
//	record  := u32 payloadLen | u32 crc32(payload) | payload
//	payload := u64 seq | u32 nrows | column data in schema order
//	column  := f64/i64: 8 bytes per row (IEEE 754 bits / two's complement)
//	           bool:    1 byte per row (0x00 / 0x01)
//	           varchar: per row u32 byteLen | bytes (values, not codes —
//	                    replay re-interns, so dictionaries rebuild
//	                    deterministically in first-use order)
//
// Replay walks records from the start, verifying length and CRC. The
// first record that is short or fails its CRC is a torn tail — the
// write the crash interrupted — and everything from it on is truncated
// away. That is exactly batch atomicity: a batch is either fully in the
// log (it was acknowledged) or absent (it was not).
type wal struct {
	path string
	f    *os.File
	off  int64 // current end of good records
	// failed is set when a truncate fails and the log's on-disk extent
	// is ambiguous: appending at the stale off could leave a gap replay
	// would read as a torn tail, silently dropping acknowledged records
	// behind it. A failed WAL refuses all further appends; the store
	// surfaces the error to every subsequent LoadBatch.
	failed error
}

// walHeaderSize is the fixed record prefix: u32 len + u32 crc.
const walHeaderSize = 8

// openWAL opens (creating if absent) the log. The caller replays before
// appending; replay establishes off.
func openWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &wal{path: path, f: f}, nil
}

// append writes one record and syncs it to stable storage; only after
// it returns nil may the batch be acknowledged. The faultinject point
// PointWAL fires after serialisation: an injected error makes append
// write a deliberately torn prefix of the record (header plus half the
// payload) and fail — on-disk state identical to a crash mid-write,
// which is how the recovery property test simulates kills at seeded
// offsets without spawning processes. Returns the record's start
// offset, which the caller uses to un-ack (truncate) if the in-memory
// fold fails after the WAL write succeeded.
func (w *wal) append(payload []byte) (start int64, err error) {
	if w.failed != nil {
		return 0, fmt.Errorf("segment: wal unusable after truncate failure: %w", w.failed)
	}
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	start = w.off
	if ferr := faultinject.Fire(faultinject.PointWAL); ferr != nil {
		torn := make([]byte, 0, walHeaderSize+len(payload)/2)
		torn = append(torn, hdr[:]...)
		torn = append(torn, payload[:len(payload)/2]...)
		w.f.WriteAt(torn, start)
		w.f.Sync()
		return start, fmt.Errorf("segment: wal append: %w", ferr)
	}
	rec := make([]byte, 0, walHeaderSize+len(payload))
	rec = append(rec, hdr[:]...)
	rec = append(rec, payload...)
	if _, err := w.f.WriteAt(rec, start); err != nil {
		return start, fmt.Errorf("segment: wal write: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return start, fmt.Errorf("segment: wal sync: %w", err)
	}
	w.off = start + int64(len(rec))
	return start, nil
}

// truncate cuts the log back to off bytes — the un-ack path (a batch
// whose fold failed must not be replayed) and the seal path (sealed
// batches leave the log). Any failure poisons the log: the file may or
// may not have been cut (a sync failure after a successful Truncate
// leaves the cut applied but unsynced), so the safe extent is unknown
// and further appends are refused. The faultinject point
// PointWALTruncate lets tests exercise exactly this path.
func (w *wal) truncate(off int64) error {
	if ferr := faultinject.Fire(faultinject.PointWALTruncate); ferr != nil {
		err := fmt.Errorf("segment: wal truncate: %w", ferr)
		w.failed = err
		return err
	}
	if err := w.f.Truncate(off); err != nil {
		err = fmt.Errorf("segment: wal truncate: %w", err)
		w.failed = err
		return err
	}
	if err := w.f.Sync(); err != nil {
		err = fmt.Errorf("segment: wal sync: %w", err)
		w.failed = err
		return err
	}
	w.off = off
	return nil
}

// replay feeds every intact record's payload to fn in order, truncates
// any torn tail, and leaves the log positioned for appending. A fn
// error is fatal (storage state is ambiguous); a torn tail is not (it
// is the defined crash shape).
func (w *wal) replay(fn func(payload []byte) error) error {
	data, err := os.ReadFile(w.path)
	if err != nil {
		return fmt.Errorf("segment: wal read: %w", err)
	}
	good := 0
	for {
		if len(data)-good < walHeaderSize {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[good:]))
		want := binary.LittleEndian.Uint32(data[good+4:])
		if n < walPayloadMin || good+walHeaderSize+n > len(data) {
			break // torn or nonsense length: tail ends here
		}
		payload := data[good+walHeaderSize : good+walHeaderSize+n]
		if crc32.ChecksumIEEE(payload) != want {
			break // torn write or corruption: tail ends here
		}
		if err := fn(payload); err != nil {
			return err
		}
		good += walHeaderSize + n
	}
	if good < len(data) {
		return w.truncate(int64(good))
	}
	w.off = int64(good)
	return nil
}

// walPayloadMin is the smallest well-formed payload: u64 seq + u32 nrows.
const walPayloadMin = 12

// encodeBatch serialises one validated batch into a WAL payload.
func encodeBatch(seq uint64, schema table.Schema, batch []table.Row) []byte {
	out := make([]byte, walPayloadMin, walPayloadMin+len(batch)*len(schema)*8)
	binary.LittleEndian.PutUint64(out[0:8], seq)
	binary.LittleEndian.PutUint32(out[8:12], uint32(len(batch)))
	for ci, def := range schema {
		switch def.Type {
		case column.Float64:
			for _, r := range batch {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(r[ci].(float64)))
			}
		case column.Int64:
			for _, r := range batch {
				out = binary.LittleEndian.AppendUint64(out, uint64(r[ci].(int64)))
			}
		case column.Bool:
			for _, r := range batch {
				b := byte(0)
				if r[ci].(bool) {
					b = 1
				}
				out = append(out, b)
			}
		case column.String:
			for _, r := range batch {
				s := r[ci].(string)
				out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
				out = append(out, s...)
			}
		}
	}
	return out
}

// decodeBatch is the inverse of encodeBatch: payload → rows, for replay
// through the same fold path a live Load takes.
func decodeBatch(schema table.Schema, payload []byte) (seq uint64, batch []table.Row, err error) {
	if len(payload) < walPayloadMin {
		return 0, nil, fmt.Errorf("segment: wal payload too short (%d bytes)", len(payload))
	}
	seq = binary.LittleEndian.Uint64(payload[0:8])
	n := int(binary.LittleEndian.Uint32(payload[8:12]))
	p := payload[walPayloadMin:]
	// Refuse a row count the payload cannot hold before allocating for
	// it: a CRC-valid record claiming 2³²−1 rows must not exhaust memory.
	if w := minRowWidth(schema); n > len(p)/max(w, 1) {
		return 0, nil, fmt.Errorf("segment: wal payload claims %d rows but holds %d bytes (at least %d per row)", n, len(p), w)
	}
	batch = make([]table.Row, n)
	for i := range batch {
		batch[i] = make(table.Row, len(schema))
	}
	for ci, def := range schema {
		switch def.Type {
		case column.Float64:
			if len(p) < 8*n {
				return 0, nil, errWALShort(def.Name)
			}
			for i := 0; i < n; i++ {
				batch[i][ci] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
			}
			p = p[8*n:]
		case column.Int64:
			if len(p) < 8*n {
				return 0, nil, errWALShort(def.Name)
			}
			for i := 0; i < n; i++ {
				batch[i][ci] = int64(binary.LittleEndian.Uint64(p[i*8:]))
			}
			p = p[8*n:]
		case column.Bool:
			if len(p) < n {
				return 0, nil, errWALShort(def.Name)
			}
			for i := 0; i < n; i++ {
				batch[i][ci] = p[i] != 0
			}
			p = p[n:]
		case column.String:
			for i := 0; i < n; i++ {
				if len(p) < 4 {
					return 0, nil, errWALShort(def.Name)
				}
				l := int(binary.LittleEndian.Uint32(p))
				p = p[4:]
				if len(p) < l {
					return 0, nil, errWALShort(def.Name)
				}
				batch[i][ci] = string(p[:l])
				p = p[l:]
			}
		}
	}
	return seq, batch, nil
}

// minRowWidth is the fewest payload bytes one row can take under
// schema: 8 per DOUBLE or BIGINT, 1 per BOOLEAN, and the 4-byte length
// prefix per VARCHAR.
func minRowWidth(schema table.Schema) int {
	w := 0
	for _, def := range schema {
		switch def.Type {
		case column.Float64, column.Int64:
			w += 8
		case column.Bool:
			w++
		case column.String:
			w += 4
		}
	}
	return w
}

func errWALShort(col string) error {
	return fmt.Errorf("segment: wal payload truncated in column %q", col)
}
