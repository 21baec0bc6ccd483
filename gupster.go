// Package gupster is a complete implementation of GUPster, the user-profile
// meta-data management framework of "Enter Once, Share Everywhere: User
// Profile Management in Converged Networks" (Sahuguet, Hull, Lieuwen,
// Xiong — CIDR 2003): a Napster-inspired meta-data manager (MDM) that
// federates profile data spread across telephony, wireless, VoIP and web
// data stores behind one standardized GUP schema, one coverage registry,
// one privacy shield, and signed referrals.
//
// This root package is the public facade: thin aliases over the internal
// packages that make up a deployment. A minimal federation is three calls:
//
//	mdm := gupster.New(gupster.Config{Schema: gupster.GUPSchema(), Signer: gupster.NewSigner(key)})
//	srv := gupster.NewMDMServer(mdm);  _ = srv.Start("127.0.0.1:0")
//	cli, _ := gupster.DialMDM(srv.Addr(), "alice", "self")
//
// See examples/quickstart for the full flow: stores registering coverage,
// privacy-shield provisioning, referral fetches with client-side merging,
// chaining/recruiting, subscriptions, and device synchronization.
package gupster

import (
	"gupster/internal/core"
	"gupster/internal/coverage"
	"gupster/internal/federation"
	"gupster/internal/policy"
	"gupster/internal/provenance"
	"gupster/internal/schema"
	"gupster/internal/store"
	"gupster/internal/syncml"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// Core MDM types (paper §4).
type (
	// MDM is the GUPster meta-data manager.
	MDM = core.MDM
	// Config parameterizes an MDM.
	Config = core.Config
	// MDMServer serves an MDM over the wire protocol.
	MDMServer = core.Server
	// Client is a GUPster client application.
	Client = core.Client
)

// Data-store types (paper §4.2).
type (
	// StoreEngine is the storage core of a GUP-enabled data store.
	StoreEngine = store.Engine
	// StoreServer serves an engine over the wire protocol.
	StoreServer = store.Server
	// StoreClient talks to a store server directly (referral targets).
	StoreClient = store.Client
	// StoreID identifies a data store in coverage registrations.
	StoreID = coverage.StoreID
)

// Profile data model types.
type (
	// Node is an XML profile component tree.
	Node = xmltree.Node
	// KeySpec names the identity attributes used in merges and diffs.
	KeySpec = xmltree.KeySpec
	// Path is an expression of the coverage XPath fragment.
	Path = xpath.Path
	// Schema is a GUP profile schema.
	Schema = schema.Schema
	// SchemaAdjuncts carry per-subtree framework metadata (requirement 8):
	// reconciliation defaults, placement hints, sensitivity, cacheability.
	SchemaAdjuncts = schema.Adjuncts
)

// GUPSchemaAdjuncts returns the standard adjuncts for the GUP schema.
var GUPSchemaAdjuncts = schema.GUPAdjuncts

// Privacy shield types (paper §4.6).
type (
	// Rule is one privacy-shield entry.
	Rule = policy.Rule
	// RequestContext is the non-path facet of a request.
	RequestContext = policy.Context
	// Condition guards a rule.
	Condition = policy.Condition
	// RoleIs matches the requester's asserted relationship role.
	RoleIs = policy.RoleIs
	// RequesterIs matches an exact requester identity.
	RequesterIs = policy.RequesterIs
	// And is condition conjunction.
	And = policy.And
	// Or is condition disjunction.
	Or = policy.Or
	// Not is condition negation.
	Not = policy.Not
	// Weekdays matches request weekdays.
	Weekdays = policy.Weekdays
)

// Shield rule effects.
const (
	// PermitAccess grants the rule's scope.
	PermitAccess = policy.Permit
	// DenyAccess refuses it (deny wins priority ties).
	DenyAccess = policy.Deny
)

// HoursBetween builds a time-of-day condition from "HH:MM" strings.
var HoursBetween = policy.HoursBetween

// Security types (paper §5.3).
type (
	// Signer issues and verifies signed referral queries.
	Signer = token.Signer
	// SignedQuery is an MDM-authorized, store-addressed query.
	SignedQuery = token.SignedQuery
)

// Synchronization types (paper §2.3 requirement 7).
type (
	// SyncDevice is the client half of a sync session (a handheld's state).
	SyncDevice = syncml.Device
	// SyncPolicy names a conflict-reconciliation policy.
	SyncPolicy = syncml.Policy
)

// Provenance types (paper §7, third core challenge).
type (
	// ProvenanceLedger is the MDM's disclosure log.
	ProvenanceLedger = provenance.Ledger
	// ProvenanceRecord is one disclosure event.
	ProvenanceRecord = provenance.Record
)

// NewProvenanceLedger creates a bounded disclosure ledger for Config.
var NewProvenanceLedger = provenance.NewLedger

// Federation types (paper §5.1).
type (
	// WhitePages maps users to the MDM managing their meta-data.
	WhitePages = federation.WhitePages
	// FederatedNode is a hierarchical MDM with delegations.
	FederatedNode = federation.Node
	// MirrorClient fails over between constellation members.
	MirrorClient = federation.MirrorClient
)

// Constructors and helpers.
var (
	// New assembles an MDM.
	New = core.New
	// NewMDMServer wraps an MDM for the wire protocol.
	NewMDMServer = core.NewServer
	// DialMDM connects a client identity to an MDM.
	DialMDM = core.DialMDM
	// NewStoreEngine creates an empty data-store engine.
	NewStoreEngine = store.NewEngine
	// NewStoreServer wraps an engine for the wire protocol.
	NewStoreServer = store.NewServer
	// DialStore connects to a store server.
	DialStore = store.DialClient
	// NewSigner creates the shared referral signer.
	NewSigner = token.NewSigner
	// GUPSchema returns the standard Generic User Profile schema.
	GUPSchema = schema.GUP
	// ParsePath parses a coverage-fragment XPath expression.
	ParsePath = xpath.Parse
	// MustParsePath parses or panics (static fixtures).
	MustParsePath = xpath.MustParse
	// ParseXML parses a profile component document.
	ParseXML = xmltree.ParseString
	// MustParseXML parses or panics (static fixtures).
	MustParseXML = xmltree.MustParse
	// DeepUnion merges two components deterministically.
	DeepUnion = xmltree.DeepUnion
	// DefaultKeys is the standard item-identity spec.
	DefaultKeys = xmltree.DefaultKeys
	// NewSyncDevice creates an empty device that slow-syncs first.
	NewSyncDevice = syncml.NewDevice
	// NewWhitePages creates an empty user→MDM directory.
	NewWhitePages = federation.NewWhitePages
	// NewFederatedNode wraps an MDM for hierarchical delegation.
	NewFederatedNode = federation.NewNode
	// DialMirrors creates a failover client over constellation addresses.
	DialMirrors = federation.DialMirrors
)

// Sync reconciliation policies.
const (
	SyncServerWins = syncml.ServerWins
	SyncClientWins = syncml.ClientWins
	SyncMerge      = syncml.Merge
)

// Query patterns (paper §5.2).
const (
	PatternReferral   = wire.PatternReferral
	PatternChaining   = wire.PatternChaining
	PatternRecruiting = wire.PatternRecruiting
)
