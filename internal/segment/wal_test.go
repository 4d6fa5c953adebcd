package segment

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/table"
)

// walRecord frames payload as one CRC-valid WAL record.
func walRecord(payload []byte) []byte {
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	return append(rec, payload...)
}

// headerOnly is a 12-byte payload: seq, then a row count and no rows.
func headerOnly(seq uint64, rows uint32) []byte {
	p := binary.LittleEndian.AppendUint64(nil, seq)
	return binary.LittleEndian.AppendUint32(p, rows)
}

// TestDecodeBatchRefusesImpossibleRowCount feeds decodeBatch payloads
// whose row count exceeds what the remaining bytes can hold at the
// schema's minimum row width. Each must be refused with an error before
// any row is allocated; 2³²−1 rows of one DOUBLE would otherwise ask the
// runtime for ~100 GB and abort the process.
func TestDecodeBatchRefusesImpossibleRowCount(t *testing.T) {
	one := func(typ column.Type) table.Schema { return table.Schema{{Name: "c", Type: typ}} }
	cases := []struct {
		name   string
		schema table.Schema
		rows   uint32
		extra  int // payload bytes after the header
	}{
		{"double_max", one(column.Float64), 0xFFFFFFFF, 0},
		{"bigint_one_short", one(column.Int64), 4, 31},
		{"bool_one_short", one(column.Bool), 9, 8},
		{"varchar_one_short", one(column.String), 3, 11},
		{"mixed_max", testSchema(), 0xFFFFFFFF, 64},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			payload := append(headerOnly(1, c.rows), make([]byte, c.extra)...)
			_, batch, err := decodeBatch(c.schema, payload)
			if err == nil || !strings.Contains(err.Error(), "claims") {
				t.Fatalf("decoded %d rows, err = %v; want the row count refused", len(batch), err)
			}
		})
	}
	// The bound is exact: the same counts with the missing byte present
	// decode.
	if _, batch, err := decodeBatch(one(column.Bool), append(headerOnly(1, 9), make([]byte, 9)...)); err != nil || len(batch) != 9 {
		t.Fatalf("9 BOOLEAN rows in 9 bytes: %d rows, err = %v", len(batch), err)
	}
	if _, batch, err := decodeBatch(one(column.String), append(headerOnly(1, 3), make([]byte, 12)...)); err != nil || len(batch) != 3 {
		t.Fatalf("3 empty VARCHAR rows in 12 bytes: %d rows, err = %v", len(batch), err)
	}
}

// TestOpenRefusesImpossibleRowCount writes a CRC-valid record claiming
// 2³²−1 rows of one DOUBLE column into an existing store's WAL: reopening
// must fail with an error, not crash the process.
func TestOpenRefusesImpossibleRowCount(t *testing.T) {
	dir := t.TempDir()
	schema := table.Schema{{Name: "x", Type: column.Float64}}
	st, err := Open(table.MustNew("t", schema), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec := walRecord(headerOnly(1, 0xFFFFFFFF))
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(table.MustNew("t", schema), Options{Dir: dir}); err == nil || !strings.Contains(err.Error(), "claims") {
		t.Fatalf("open over an impossible row count: err = %v", err)
	}
}

// FuzzWALReplay feeds arbitrary bytes to decodeBatch (as a payload) and
// to wal.replay (as a log file). Neither may panic or allocate beyond
// the input; a decoded batch must re-encode to bytes that decode and
// re-encode unchanged, and replay must leave exactly a prefix of the
// input on disk.
func FuzzWALReplay(f *testing.F) {
	schema := testSchema()
	valid := encodeBatch(1, schema, genBatch(rand.New(rand.NewSource(1)), 5))
	f.Add(valid)
	f.Add(walRecord(valid))
	f.Add(walRecord(headerOnly(1, 0xFFFFFFFF)))
	f.Add(append(walRecord(valid), walRecord(valid)[:20]...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if seq, batch, err := decodeBatch(schema, data); err == nil {
			if len(batch) > len(data) {
				t.Fatalf("%d rows decoded from %d bytes", len(batch), len(data))
			}
			enc := encodeBatch(seq, schema, batch)
			seq2, batch2, err := decodeBatch(schema, enc)
			if err != nil || !bytes.Equal(encodeBatch(seq2, schema, batch2), enc) {
				t.Fatalf("decoded batch does not round-trip: err = %v", err)
			}
		}

		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := openWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		defer w.f.Close()
		rerr := w.replay(func(payload []byte) error {
			_, _, err := decodeBatch(schema, payload)
			return err
		})
		if rerr != nil {
			return // refused: the store does not open over this log
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(kept)) != w.off || !bytes.HasPrefix(data, kept) {
			t.Fatalf("replay kept %d bytes (off %d) that are not a prefix of the %d-byte input", len(kept), w.off, len(data))
		}
	})
}
