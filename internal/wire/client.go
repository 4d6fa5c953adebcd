package wire

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"time"
)

// Client is the in-repo wire-protocol client used by tests, benchmarks,
// and the chaos suite. One Client is one session on one connection;
// requests are sequential (the protocol has no pipelining), so a Client
// is not safe for concurrent use — open one per goroutine.
type Client struct {
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	scratch []byte
	enc     []byte

	// SessionID is the server-assigned session id from the handshake.
	SessionID uint64
}

// Stmt is a server-side prepared statement handle.
type Stmt struct {
	ID uint32
	// NumParams is how many float64 literals Execute may rebind — the
	// statement's parameterisable numeric literals in token order.
	NumParams int
}

// ServerError is a decoded error frame.
type ServerError struct {
	Code       string
	Message    string
	RetryAfter time.Duration
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("wire: server error %s: %s", e.Code, e.Message)
}

// Response is one query's decoded answer: exactly one of Exact or
// Bounded is set (both nil for an empty result), plus the End frame's
// server-side accounting.
type Response struct {
	Exact     *ExactResult
	Bounded   *Bounded
	Rows      uint64
	ElapsedNs int64
	QueueNs   int64
}

// ExactResult is a fully accumulated streamed result: the header's
// column layout plus per-column value slices concatenated across
// batches.
type ExactResult struct {
	Cols   []Col
	Blocks []ColBlock
	rows   int
}

// NumRows returns the accumulated row count.
func (r *ExactResult) NumRows() int { return r.rows }

// RowStrings renders row i with the same formatting as the engine's
// table renderer (%g / %d / %t / raw string), so equivalence tests can
// compare against HTTP JSON rows directly.
func (r *ExactResult) RowStrings(i int) []string {
	out := make([]string, len(r.Blocks))
	for k, b := range r.Blocks {
		switch b.Type {
		case TypeFloat64:
			out[k] = fmt.Sprintf("%g", b.F64[i])
		case TypeInt64:
			out[k] = strconv.FormatInt(b.I64[i], 10)
		case TypeBool:
			out[k] = strconv.FormatBool(b.Bool[i])
		default:
			out[k] = b.Str[i]
		}
	}
	return out
}

// Dial opens a connection to a wire listener and performs the Hello
// handshake on behalf of tenant.
func Dial(addr, tenant string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 64<<10),
		w:    bufio.NewWriterSize(conn, 64<<10),
	}
	c.enc = appendU8(c.enc[:0], ProtocolVersion)
	c.enc = appendStr(c.enc, tenant)
	if err := c.send(FrameHello, c.enc); err != nil {
		conn.Close()
		return nil, err
	}
	typ, payload, err := c.read()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if typ == FrameError {
		defer conn.Close()
		return nil, decodeServerError(payload)
	}
	if typ != FrameHelloOK {
		conn.Close()
		return nil, fmt.Errorf("wire: expected HelloOK, got frame 0x%02x", typ)
	}
	cur := cursor{p: payload}
	version := cur.u8()
	c.SessionID = cur.u64()
	if err := cur.done(); err != nil {
		conn.Close()
		return nil, err
	}
	if version != ProtocolVersion {
		conn.Close()
		return nil, fmt.Errorf("wire: server speaks protocol %d, want %d", version, ProtocolVersion)
	}
	return c, nil
}

// Close sends Bye and closes the connection.
func (c *Client) Close() error {
	c.send(FrameBye, nil) // best-effort courtesy
	return c.conn.Close()
}

// Query executes one SQL statement and accumulates the full streamed
// response — every batch, no truncation.
func (c *Client) Query(sql string) (*Response, error) {
	c.enc = appendStr(c.enc[:0], sql)
	if err := c.send(FrameQuery, c.enc); err != nil {
		return nil, err
	}
	return c.readResponse()
}

// Prepare registers sql as a session prepared statement.
func (c *Client) Prepare(sql string) (*Stmt, error) {
	c.enc = appendStr(c.enc[:0], sql)
	if err := c.send(FramePrepare, c.enc); err != nil {
		return nil, err
	}
	typ, payload, err := c.read()
	if err != nil {
		return nil, err
	}
	if typ == FrameError {
		return nil, decodeServerError(payload)
	}
	if typ != FramePrepareOK {
		return nil, fmt.Errorf("wire: expected PrepareOK, got frame 0x%02x", typ)
	}
	cur := cursor{p: payload}
	st := &Stmt{ID: cur.u32(), NumParams: int(cur.u16())}
	if err := cur.done(); err != nil {
		return nil, err
	}
	return st, nil
}

// Execute runs a prepared statement. With no lits the statement
// re-executes verbatim; with exactly
// NumParams lits the statement's numeric literals are rebound in token
// order.
func (c *Client) Execute(st *Stmt, lits ...float64) (*Response, error) {
	c.enc = appendU32(c.enc[:0], st.ID)
	c.enc = appendU16(c.enc, uint16(len(lits)))
	for _, v := range lits {
		c.enc = appendF64(c.enc, v)
	}
	if err := c.send(FrameExecute, c.enc); err != nil {
		return nil, err
	}
	return c.readResponse()
}

// CloseStmt discards a prepared statement. It is fire-and-forget: the
// server sends no acknowledgement.
func (c *Client) CloseStmt(st *Stmt) error {
	c.enc = appendU32(c.enc[:0], st.ID)
	return c.send(FrameCloseStmt, c.enc)
}

func (c *Client) send(typ byte, payload []byte) error {
	if err := WriteFrame(c.w, typ, payload); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *Client) read() (byte, []byte, error) {
	typ, payload, scratch, err := ReadFrame(c.r, MaxServerFrame, c.scratch)
	c.scratch = scratch
	return typ, payload, err
}

// readResponse consumes one full response: an error frame, a bounded
// frame + End, or a header + batch stream + End.
func (c *Client) readResponse() (*Response, error) {
	typ, payload, err := c.read()
	if err != nil {
		return nil, err
	}
	switch typ {
	case FrameError:
		return nil, decodeServerError(payload)
	case FrameBounded:
		b, err := DecodeBounded(payload)
		if err != nil {
			return nil, err
		}
		resp := &Response{Bounded: b}
		return resp, c.readEnd(resp)
	case FrameEnd:
		resp := &Response{}
		return resp, decodeEndInto(payload, resp)
	case FrameHeader:
		h, err := DecodeHeader(payload)
		if err != nil {
			return nil, err
		}
		ex := &ExactResult{Cols: h.Cols, Blocks: make([]ColBlock, len(h.Cols))}
		for i, col := range h.Cols {
			ex.Blocks[i].Type = col.Type
		}
		for {
			typ, payload, err := c.read()
			if err != nil {
				return nil, err
			}
			switch typ {
			case FrameBatch:
				ba, err := DecodeBatch(payload)
				if err != nil {
					return nil, err
				}
				if len(ba.Cols) != len(ex.Blocks) {
					return nil, fmt.Errorf("wire: batch has %d columns, header declared %d",
						len(ba.Cols), len(ex.Blocks))
				}
				for i := range ba.Cols {
					if ba.Cols[i].Type != ex.Blocks[i].Type {
						return nil, fmt.Errorf("wire: column %d type changed mid-stream", i)
					}
					ex.Blocks[i].F64 = append(ex.Blocks[i].F64, ba.Cols[i].F64...)
					ex.Blocks[i].I64 = append(ex.Blocks[i].I64, ba.Cols[i].I64...)
					ex.Blocks[i].Bool = append(ex.Blocks[i].Bool, ba.Cols[i].Bool...)
					ex.Blocks[i].Str = append(ex.Blocks[i].Str, ba.Cols[i].Str...)
				}
				ex.rows += ba.Rows
			case FrameEnd:
				resp := &Response{Exact: ex}
				if err := decodeEndInto(payload, resp); err != nil {
					return nil, err
				}
				if uint64(ex.rows) != h.RowCount || resp.Rows != h.RowCount {
					return nil, fmt.Errorf("wire: header promised %d rows, streamed %d, end reported %d",
						h.RowCount, ex.rows, resp.Rows)
				}
				return resp, nil
			case FrameError:
				return nil, decodeServerError(payload)
			default:
				return nil, fmt.Errorf("wire: unexpected frame 0x%02x mid-stream", typ)
			}
		}
	default:
		return nil, fmt.Errorf("wire: unexpected response frame 0x%02x", typ)
	}
}

func (c *Client) readEnd(resp *Response) error {
	typ, payload, err := c.read()
	if err != nil {
		return err
	}
	if typ != FrameEnd {
		return fmt.Errorf("wire: expected End, got frame 0x%02x", typ)
	}
	return decodeEndInto(payload, resp)
}

func decodeEndInto(payload []byte, resp *Response) error {
	e, err := DecodeEnd(payload)
	if err != nil {
		return err
	}
	resp.Rows = e.Rows
	resp.ElapsedNs = e.ElapsedNs
	resp.QueueNs = e.QueueNs
	return nil
}

func decodeServerError(payload []byte) error {
	e, err := DecodeError(payload)
	if err != nil {
		return err
	}
	return &ServerError{
		Code:       e.Code,
		Message:    e.Message,
		RetryAfter: time.Duration(e.RetryAfterNs),
	}
}
