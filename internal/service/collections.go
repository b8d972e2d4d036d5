package service

import (
	"errors"
	"fmt"
	"io"

	"pathfinder/internal/pfstore"
	"pathfinder/internal/xenc"
)

// Collection management: the service front door over the persistent
// catalog. Mutations follow a clone-modify-publish protocol — the current
// store snapshot is cloned (fragments shared, pools and registry copied),
// the clone takes the new document, and the catalog publishes it under a
// bumped generation. Queries already running keep their pinned snapshot;
// new requests see the new generation, and every prepared plan compiled
// against the collection is dropped (its lowered plan forgotten) so stale
// surrogate resolutions cannot be served.

// ErrNoCatalog reports a collection operation on a service configured
// without a persistent catalog.
var ErrNoCatalog = errors.New("no collection catalog configured (start with -store)")

// CollectionResult reports the outcome of a collection mutation.
type CollectionResult struct {
	Name       string `json:"name"`
	Generation uint64 `json:"generation"`
	Documents  int    `json:"documents"`
}

// PutDocument loads one XML document into the named collection, creating
// the collection if it does not exist and replacing the document if the
// name is already taken, then persists and publishes the new generation.
func (s *Service) PutDocument(name, docURI string, xml io.Reader) (*CollectionResult, error) {
	if s.cat == nil {
		return nil, ErrNoCatalog
	}
	if !pfstore.ValidName(name) {
		return nil, &Error{Code: CodeCompile, Err: fmt.Errorf("invalid collection name %q", name)}
	}
	if docURI == "" {
		return nil, &Error{Code: CodeCompile, Err: errors.New("missing document name")}
	}
	if !s.begin() {
		return nil, &Error{Code: CodeDraining, Err: errors.New("server is draining")}
	}
	defer s.inFlight.Done()

	s.catMu.Lock()
	defer s.catMu.Unlock()

	// Clone the current snapshot (or start fresh): fragments are immutable
	// and shared; pools and the document registry are copied, so in-flight
	// queries over the old generation never observe the mutation.
	var work *xenc.Store
	//pfvet:allow lockorder -- catMu serializes rare admin mutations end to end (read-clone-put must be atomic vs a concurrent Put/Delete); the query path never takes catMu
	if base, _, err := s.cat.Collection(name); err == nil {
		if work, err = xenc.NewStoreFromParts(base.Parts()); err != nil {
			return nil, &Error{Code: CodeExec, Err: fmt.Errorf("clone collection %q: %w", name, err)}
		}
	} else if errors.Is(err, pfstore.ErrNotFound) {
		work = xenc.NewStore()
	} else {
		return nil, &Error{Code: CodeExec, Err: err}
	}

	if _, err := work.ReplaceDocument(docURI, xml); err != nil {
		return nil, &Error{Code: CodeCompile, Err: err}
	}
	//pfvet:allow lockorder -- the persist-and-publish must stay inside the same catMu critical section as the clone; queries read published generations without catMu
	gen, err := s.cat.Put(name, work)
	if err != nil {
		return nil, &Error{Code: CodeExec, Err: err}
	}
	s.invalidateCollection(name)
	return &CollectionResult{Name: name, Generation: gen, Documents: len(work.DocURIs())}, nil
}

// DeleteCollection removes a named collection from the catalog and drops
// its prepared plans.
func (s *Service) DeleteCollection(name string) error {
	if s.cat == nil {
		return ErrNoCatalog
	}
	if !s.begin() {
		return &Error{Code: CodeDraining, Err: errors.New("server is draining")}
	}
	defer s.inFlight.Done()

	s.catMu.Lock()
	defer s.catMu.Unlock()
	//pfvet:allow lockorder -- delete must be atomic against a concurrent PutDocument clone of the same name; catMu is admin-only, never on the query path
	if err := s.cat.Delete(name); err != nil {
		if errors.Is(err, pfstore.ErrNotFound) {
			return &Error{Code: CodeNotFound, Err: err}
		}
		return &Error{Code: CodeExec, Err: err}
	}
	s.invalidateCollection(name)
	return nil
}

// Collections lists the catalog.
func (s *Service) Collections() ([]pfstore.CollectionInfo, error) {
	if s.cat == nil {
		return nil, ErrNoCatalog
	}
	infos, err := s.cat.List()
	if err != nil {
		return nil, &Error{Code: CodeExec, Stage: "catalog", Err: err}
	}
	return infos, nil
}

// Catalog exposes the backing catalog (nil when none is configured) for
// tools that preload collections before serving.
func (s *Service) Catalog() *pfstore.Catalog { return s.cat }

// invalidateCollection drops every prepared plan compiled against the
// named collection, any generation.
func (s *Service) invalidateCollection(name string) {
	s.preparedMu.Lock()
	defer s.preparedMu.Unlock()
	for k := range s.prepared {
		if k.Collection == name {
			delete(s.prepared, k)
		}
	}
}

// preparedKeys snapshots the live cache keys (tests assert invalidation).
func (s *Service) preparedKeys() []planKey {
	s.preparedMu.Lock()
	defer s.preparedMu.Unlock()
	out := make([]planKey, 0, len(s.prepared))
	for k := range s.prepared {
		out = append(out, k)
	}
	return out
}
