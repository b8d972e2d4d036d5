package service

import (
	"context"

	"pathfinder/internal/engine"
	"pathfinder/internal/mil"
)

// NewMILServer returns a MIL TCP server over this service's store, with
// every connection routed through the service: each TCP client gets an
// accounting session, and both the MIL and XQ commands pass the
// prepared-plan and admission paths exactly like HTTP requests.
func (s *Service) NewMILServer() *mil.Server {
	return mil.NewServer(s.eng.Store, s)
}

// ConnOpened implements mil.ConnHooks: one session per TCP connection.
func (s *Service) ConnOpened() mil.ConnSession {
	return &milSession{s: s, sess: s.OpenSession("tcp")}
}

// milSession adapts one TCP connection to the service's execution path.
type milSession struct {
	s    *Service
	sess *Session
}

func (m *milSession) ExecQuery(ctx context.Context, req engine.QueryRequest) (string, error) {
	return m.exec(ctx, Request{Query: req.Query, Collection: req.Collection, ContextDoc: req.ContextDoc})
}

// ExecMIL runs a shipped program as a prepared request keyed by its text:
// the first shipment parses, checks and lowers it, later ones reuse that.
func (m *milSession) ExecMIL(ctx context.Context, program string) (string, error) {
	return m.exec(ctx, Request{Query: program, MIL: true})
}

func (m *milSession) exec(ctx context.Context, req Request) (string, error) {
	req.Session = m.sess
	resp, err := m.s.Query(ctx, req)
	if err != nil {
		return "", err
	}
	return resp.Result, nil
}

func (m *milSession) Close() { m.s.CloseSession(m.sess) }
