package xlnand

import "xlnand/internal/array"

// The fleet-scale array service: a striped multi-drive front end over
// the single-drive stack, with host-side caching, per-tenant QoS and
// merged fleet telemetry. See internal/array for the determinism
// design (round-based scheduling with order-sensitive merges at
// barriers, never in completion order).

// Array stripes a volume address space across N independent drives,
// each a full dispatcher + FTL instance with decorrelated seeds.
type Array = array.Array

// ArrayConfig shapes an Array: drive count and geometry, stripe unit,
// host cache, tenant QoS population and codec family.
type ArrayConfig = array.Config

// ArrayOp is one tenant operation against the volume address space.
type ArrayOp = array.Op

// ArrayResult reports one completed ArrayOp in deterministic schedule
// order.
type ArrayResult = array.Result

// ArrayCacheConfig shapes the host-side LRU read cache / write-back
// buffer by its capacity in volume pages. A round that leaves the buffer
// three quarters full writes every dirty page back.
type ArrayCacheConfig = array.CacheConfig

// ArrayCacheStats is the cache telemetry block of a fleet report.
type ArrayCacheStats = array.CacheStats

// ArrayTenant declares one QoS tenant: a token-bucket rate (ops per
// modelled second; 0 = unthrottled) and burst.
type ArrayTenant = array.TenantConfig

// ArrayTenantStats is the per-tenant telemetry block of a fleet report.
type ArrayTenantStats = array.TenantStats

// FleetReport is the merged fleet telemetry: per-drive wear/retry/
// soft-sense/UBER climate, cache and tenant stats, and fleet totals.
type FleetReport = array.FleetReport

// FleetDriveReport is one drive's section of a FleetReport.
type FleetDriveReport = array.DriveReport

// FleetTotals sums the per-drive climates and derives the fleet UBER.
type FleetTotals = array.FleetTotals

// ArrayFaultPlan is the deterministic drive-fault schedule: per-drive
// fail-stop rounds/times, transient error rates, latency degradation
// and UBER-climate death, all derived from the plan seed so two runs
// of the same plan inject identical faults.
type ArrayFaultPlan = array.FaultPlan

// ArrayDriveFault is one drive's entry in an ArrayFaultPlan.
type ArrayDriveFault = array.DriveFault

// ArrayHealthTransition is one recorded health-state change
// (healthy → suspect → degraded → dead → rebuilding → restored).
type ArrayHealthTransition = array.HealthTransition

// ArrayRebuildReport documents one spare rebuild: pages and bytes
// reconstructed, checkpoints, losses, and the achieved rebuild rate.
type ArrayRebuildReport = array.RebuildReport

// ErrArrayClosed is returned by Submit/Drain/Flush after Close.
// (The root ErrClosed name belongs to the single-drive dispatcher.)
var ErrArrayClosed = array.ErrClosed

// ErrArrayDriveDead reports an op refused because its slot's drive is
// dead and no redundancy could absorb the request.
var ErrArrayDriveDead = array.ErrDriveDead

// OpenArray opens a striped multi-drive array of fresh drives.
//
//	a, err := xlnand.OpenArray(xlnand.ArrayConfig{
//		Drives: 16,
//		Seed:   42,
//		Cache:  xlnand.ArrayCacheConfig{Pages: 256},
//		Tenants: []xlnand.ArrayTenant{
//			{Name: "oltp"},
//			{Name: "scan", Rate: 2000, Burst: 64},
//		},
//	})
//
// Submit ops, Drain for deterministic results, Report for the merged
// fleet telemetry, then Close.
func OpenArray(cfg ArrayConfig) (*Array, error) { return array.New(cfg) }
