package engine

// QueryRequest names a query and the data it runs against — the single
// request shape threaded through the service and MIL layers in place of
// the historical ad-hoc (query, contextDoc) pairs.
//
// Collection selects a named catalog collection; absolute paths and
// fn:collection() bind to it, and the evaluation runs on an engine view
// over that collection's store. ContextDoc is the older single-document
// binding (absolute paths resolve to fn:doc(ContextDoc)); it still works
// for anonymous stores and is ignored when Collection is set.
type QueryRequest struct {
	Query      string // XQuery source text
	Collection string // named collection; "" = the engine's default binding
	ContextDoc string // deprecated: implicit document URI for absolute paths
}
