package mil

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"

	"pathfinder/internal/engine"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
)

// Server is the back-end half of the demonstration setup (§4): the wire
// protocol in front of a document store. It loads documents itself and
// hands every program and query to the session its hooks open for the
// connection, which compiles, caches and runs them (internal/service).
// The wire protocol is line-framed:
//
//	LOAD <uri> <nbytes>\n<xml>     load a document
//	GEN <uri> <sf>\n               generate an XMark instance server-side
//	MIL <nbytes>\n<program>        execute, respond with the serialized result
//	XQ <nbytes> [doc [coll]]\n<query>
//	                               compile and execute an XQuery server-side,
//	                               optionally binding absolute paths to doc
//	                               and the evaluation to named collection
//	                               coll ("-" for doc means no binding)
//	STORAGE\n                      storage report (§3.1 numbers)
//	QUIT\n                         close the connection
//
// Responses are "OK <nbytes>\n<payload>" or "ERR <nbytes>\n<message>".
//
// Each connection is a session: commands on one connection run serially
// (the protocol is request/response), but connections run concurrently
// against the shared store — store mutations take the server mutex,
// query evaluation does not. A connection that drops mid-query cancels
// that query's context, so its scheduler workers are released promptly.
type Server struct {
	mu    sync.Mutex // serializes store mutations (LOAD/GEN)
	store *xenc.Store
	hooks ConnHooks

	lnMu      sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[io.Closer]struct{}
	closed    bool
}

// maxCmdBytes bounds MIL/XQ payloads (mirroring the HTTP front door's
// 1MiB body cap); maxLoadBytes bounds LOAD documents, which are
// legitimately much larger, and GEN instances. Declared counts above the
// limit are rejected before allocating, so one unauthenticated "MIL
// 9999999999" line cannot force a multi-GB allocation.
const (
	maxCmdBytes  = 1 << 20
	maxLoadBytes = 256 << 20
)

// genBytesPerSF over-estimates an XMark instance's size per unit of scale
// factor (≈ 37 MB is measured at SF 0.1 and 0.5): GEN refuses a scale
// factor whose instance would exceed maxLoadBytes before generating it.
const genBytesPerSF = 40 << 20

// ConnHooks customizes per-connection behavior.
type ConnHooks interface {
	// ConnOpened is called once per connection; the returned session
	// executes that connection's queries and is closed with it.
	ConnOpened() ConnSession
}

// ConnSession is one connection's execution scope.
type ConnSession interface {
	// ExecQuery compiles and runs an XQuery (the XQ command).
	ExecQuery(ctx context.Context, req engine.QueryRequest) (string, error)
	// ExecMIL parses and runs a MIL program (the MIL command).
	ExecMIL(ctx context.Context, program string) (string, error)
	Close()
}

// NewServer returns a server over store whose connections run their
// programs and queries through the sessions hooks opens; hooks is
// required. internal/service builds one with Service.NewMILServer, which
// shares the service's store and its prepared-plan cache.
func NewServer(store *xenc.Store, hooks ConnHooks) *Server {
	if hooks == nil {
		panic("mil: NewServer needs connection hooks")
	}
	return &Server{
		store:     store,
		hooks:     hooks,
		listeners: map[net.Listener]struct{}{},
		conns:     map[io.Closer]struct{}{},
	}
}

// Serve accepts connections until the listener closes (or Close is
// called, which returns nil).
func (s *Server) Serve(l net.Listener) error {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		l.Close()
		return net.ErrClosed
	}
	s.listeners[l] = struct{}{}
	s.lnMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.lnMu.Lock()
			delete(s.listeners, l)
			closed := s.closed
			s.lnMu.Unlock()
			if closed && errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.lnMu.Lock()
		if s.closed {
			s.lnMu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.lnMu.Unlock()
		go func() {
			defer func() {
				conn.Close()
				s.lnMu.Lock()
				delete(s.conns, conn)
				s.lnMu.Unlock()
			}()
			s.ServeConn(conn)
		}()
	}
}

// Close stops accepting and closes every listener and open connection.
// In-flight commands observe their connection close as a context
// cancellation.
func (s *Server) Close() {
	s.lnMu.Lock()
	s.closed = true
	for l := range s.listeners {
		//pfvet:allow lockorder -- shutdown-only: lnMu must cover closed=true plus the close sweep so a racing accept cannot register a new conn after the sweep; Close on a TCP listener does not block
		l.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.lnMu.Unlock()
}

// command is one parsed protocol command, payload included.
type command struct {
	fields []string
	body   []byte
	err    string // framing error to report instead of executing
}

// ServeConn handles one client connection. A dedicated goroutine owns
// all reads and feeds parsed commands to the handler; when the client
// disconnects (EOF or read error) it cancels the connection context, so
// a query still executing is aborted mid-operator instead of running to
// completion for nobody.
func (s *Server) ServeConn(rw io.ReadWriter) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess := s.hooks.ConnOpened()
	defer sess.Close()
	r := bufio.NewReader(rw)
	w := bufio.NewWriter(rw)
	defer w.Flush()

	cmds := make(chan command)
	go func() {
		defer close(cmds)
		for {
			cmd, last := readCommand(r)
			if cmd == nil {
				cancel() // disconnect: abort any in-flight execution
				return
			}
			select {
			case cmds <- *cmd:
			case <-ctx.Done():
				return
			}
			if last {
				return
			}
		}
	}()

	for cmd := range cmds {
		if cmd.err != "" {
			reply(w, "ERR", cmd.err)
			continue
		}
		if cmd.fields[0] == "QUIT" {
			return
		}
		s.handle(ctx, w, sess, cmd)
	}
}

// readCommand reads one command and its payload. It returns nil when the
// stream ends, and last=true after a command that ends the conversation
// (QUIT) or breaks framing beyond recovery.
func readCommand(r *bufio.Reader) (*command, bool) {
	line, err := r.ReadString('\n')
	if err != nil {
		return nil, true
	}
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 {
		return &command{err: "empty command"}, false
	}
	cmd := &command{fields: fields}
	// Payload-carrying commands: the byte count's position varies.
	countAt := -1
	switch fields[0] {
	case "QUIT":
		return cmd, true
	case "LOAD":
		if len(fields) != 3 {
			cmd.err = "usage: LOAD <uri> <nbytes>"
			return cmd, false
		}
		countAt = 2
	case "MIL":
		if len(fields) != 2 {
			cmd.err = "usage: MIL <nbytes>"
			return cmd, false
		}
		countAt = 1
	case "XQ":
		if len(fields) < 2 || len(fields) > 4 {
			cmd.err = "usage: XQ <nbytes> [doc [collection]]"
			return cmd, false
		}
		countAt = 1
	}
	if countAt >= 0 {
		n, err := strconv.Atoi(fields[countAt])
		if err != nil || n < 0 {
			cmd.err = "bad byte count"
			return cmd, false
		}
		limit := maxCmdBytes
		if fields[0] == "LOAD" {
			limit = maxLoadBytes
		}
		if n > limit {
			// The payload cannot be skipped without reading it, so the
			// frame is unrecoverable: report the error and close.
			cmd.err = fmt.Sprintf("payload of %d bytes exceeds limit of %d", n, limit)
			return cmd, true
		}
		cmd.body = make([]byte, n)
		if _, err := io.ReadFull(r, cmd.body); err != nil {
			cmd.err = "short read: " + err.Error()
			return cmd, true // framing is broken; stop reading
		}
	}
	return cmd, false
}

// handle executes one well-formed command and writes the response.
func (s *Server) handle(ctx context.Context, w *bufio.Writer, sess ConnSession, cmd command) {
	fields := cmd.fields
	switch fields[0] {
	case "LOAD":
		s.mu.Lock()
		_, err := s.store.LoadDocumentString(fields[1], string(cmd.body))
		s.mu.Unlock()
		if err != nil {
			reply(w, "ERR", err.Error())
			return
		}
		reply(w, "OK", "")
	case "GEN":
		if len(fields) != 3 {
			reply(w, "ERR", "usage: GEN <uri> <sf>")
			return
		}
		sf, err := strconv.ParseFloat(fields[2], 64)
		// Written so that NaN fails too: every comparison with it is
		// false. +Inf fails the size bound.
		if err != nil || !(sf > 0) {
			reply(w, "ERR", "bad scale factor")
			return
		}
		if sf*genBytesPerSF > maxLoadBytes {
			reply(w, "ERR", fmt.Sprintf("scale factor %g exceeds limit of %g", sf, float64(maxLoadBytes)/genBytesPerSF))
			return
		}
		doc := xmark.GenerateString(sf)
		s.mu.Lock()
		_, err = s.store.LoadDocumentString(fields[1], doc)
		s.mu.Unlock()
		if err != nil {
			reply(w, "ERR", err.Error())
			return
		}
		reply(w, "OK", fmt.Sprintf("generated %d bytes", len(doc)))
	case "MIL":
		out, err := sess.ExecMIL(ctx, string(cmd.body))
		if err != nil {
			reply(w, "ERR", err.Error())
			return
		}
		reply(w, "OK", out)
	case "XQ":
		req := engine.QueryRequest{Query: string(cmd.body)}
		if len(fields) >= 3 && fields[2] != "-" {
			req.ContextDoc = fields[2]
		}
		if len(fields) == 4 {
			req.Collection = fields[3]
		}
		out, err := sess.ExecQuery(ctx, req)
		if err != nil {
			reply(w, "ERR", err.Error())
			return
		}
		reply(w, "OK", out)
	case "STORAGE":
		s.mu.Lock()
		rep := s.store.Report()
		s.mu.Unlock()
		reply(w, "OK", fmt.Sprintf("nodes=%d attrs=%d structural=%d pools=%d total=%d",
			rep.Nodes, rep.Attrs, rep.StructuralBytes,
			rep.TagPoolBytes+rep.TextPoolBytes+rep.AttrPoolBytes, rep.Total()))
	default:
		reply(w, "ERR", "unknown command "+fields[0])
	}
}

func reply(w *bufio.Writer, status, payload string) {
	fmt.Fprintf(w, "%s %d\n%s", status, len(payload), payload)
	w.Flush()
}

// Client is the front-end side of the protocol.
type Client struct {
	conn io.ReadWriteCloser
	r    *bufio.Reader
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an existing connection.
func NewClient(conn io.ReadWriteCloser) *Client {
	return &Client{conn: conn, r: bufio.NewReader(conn)}
}

// Close closes the connection after a polite QUIT.
func (c *Client) Close() error {
	fmt.Fprintf(c.conn, "QUIT\n")
	return c.conn.Close()
}

func (c *Client) roundTrip(header string, body []byte) (string, error) {
	if _, err := io.WriteString(c.conn, header); err != nil {
		return "", err
	}
	if len(body) > 0 {
		if _, err := c.conn.Write(body); err != nil {
			return "", err
		}
	}
	status, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	fields := strings.Fields(strings.TrimSpace(status))
	if len(fields) != 2 {
		return "", fmt.Errorf("malformed response %q", status)
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 0 {
		return "", fmt.Errorf("malformed response length %q", status)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return "", err
	}
	if fields[0] == "ERR" {
		return "", fmt.Errorf("server: %s", buf)
	}
	return string(buf), nil
}

// Load ships a document to the server.
func (c *Client) Load(uri, xml string) error {
	if !validWireName(uri) {
		return fmt.Errorf("mil: document uri %q is not representable in the wire header", uri)
	}
	_, err := c.roundTrip(fmt.Sprintf("LOAD %s %d\n", uri, len(xml)), []byte(xml))
	return err
}

// Gen asks the server to generate and load an XMark instance.
func (c *Client) Gen(uri string, sf float64) (string, error) {
	if !validWireName(uri) {
		return "", fmt.Errorf("mil: document uri %q is not representable in the wire header", uri)
	}
	return c.roundTrip(fmt.Sprintf("GEN %s %g\n", uri, sf), nil)
}

// ExecMIL ships a MIL program and returns the serialized result.
func (c *Client) ExecMIL(program string) (string, error) {
	return c.roundTrip(fmt.Sprintf("MIL %d\n", len(program)), []byte(program))
}

// validWireName reports whether a name can travel in the space-delimited
// command header: whitespace would shift the remaining fields, and a
// literal "-" would collide with the no-context-doc placeholder and be
// silently dropped by the server.
func validWireName(name string) bool {
	if name == "-" {
		return false
	}
	return !strings.ContainsAny(name, " \t\r\n\v\f")
}

// ExecXQReq ships an XQuery for server-side compilation and execution
// with its full request binding: the context document for absolute paths
// and the named collection to evaluate against.
func (c *Client) ExecXQReq(req engine.QueryRequest) (string, error) {
	if req.ContextDoc != "" && !validWireName(req.ContextDoc) {
		return "", fmt.Errorf("mil: context doc %q is not representable in the wire header", req.ContextDoc)
	}
	if req.Collection != "" && !validWireName(req.Collection) {
		return "", fmt.Errorf("mil: collection %q is not representable in the wire header", req.Collection)
	}
	header := fmt.Sprintf("XQ %d\n", len(req.Query))
	switch {
	case req.Collection != "":
		doc := req.ContextDoc
		if doc == "" {
			doc = "-" // placeholder: collection without a context doc
		}
		header = fmt.Sprintf("XQ %d %s %s\n", len(req.Query), doc, req.Collection)
	case req.ContextDoc != "":
		header = fmt.Sprintf("XQ %d %s\n", len(req.Query), req.ContextDoc)
	}
	return c.roundTrip(header, []byte(req.Query))
}

// ExecXQ ships an XQuery, optionally binding absolute paths to contextDoc.
//
// Deprecated: use ExecXQReq, which also carries the collection binding.
func (c *Client) ExecXQ(src, contextDoc string) (string, error) {
	return c.ExecXQReq(engine.QueryRequest{Query: src, ContextDoc: contextDoc})
}

// Storage fetches the server's storage report.
func (c *Client) Storage() (string, error) {
	return c.roundTrip("STORAGE\n", nil)
}
