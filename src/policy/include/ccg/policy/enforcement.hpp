// Data-path enforcement simulation (paper §2.1).
//
// compile_rules() counts per-VM rules; this module *materializes* them and
// evaluates flows against them, the way the network-virtualization layer
// on each VM's NIC would. That closes the loop: for every flow, the data
// path's allow/deny must agree with the policy-level decision — for both
// compilers — or the compilation is wrong. (bench_rule_explosion counts
// the cost; tests here prove the semantics.)
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ccg/policy/reachability.hpp"
#include "ccg/policy/rules.hpp"

namespace ccg {

/// The policy-level allow rule a record corresponds to (client/server
/// resolved via the initiator bit or the port heuristic, segments via the
/// map, unsegmented peers as kExternalSegment).
AllowRule rule_for_record(const SegmentMap& segments,
                          const ConnectionSummary& record);

/// One rule as programmed into a VM's NIC table.
struct DataPathRule {
  bool inbound = false;  // direction relative to the owning VM
  enum class PeerMatch : std::uint8_t {
    kIp,       // exact peer IP (ip-unrolled compiler)
    kCidr,     // aggregated peer block (cidr compiler)
    kTag,      // peer's segment tag (tag-based compiler)
    kExternal  // any peer outside the segmented estate
  } peer = PeerMatch::kIp;
  IpAddr peer_ip;
  IpPrefix peer_block;
  std::uint32_t peer_tag = 0;
  std::uint16_t server_port = 0;
};

/// A VM's programmed table plus the match logic the NIC would run.
class VmRuleTable {
 public:
  void add(DataPathRule rule) { rules_.push_back(rule); }
  std::size_t size() const { return rules_.size(); }
  const std::vector<DataPathRule>& rules() const { return rules_; }

  /// Would this table pass a flow in the given direction? `peer_tag` is
  /// kUnsegmented for peers with no tag.
  bool allows(bool inbound, IpAddr peer_ip, std::uint32_t peer_tag,
              std::uint16_t server_port) const;

 private:
  std::vector<DataPathRule> rules_;
};

/// The fleet's programmed data path under one compiler.
class EnforcementPlane {
 public:
  enum class Verdict { kAllow, kDeny, kNoTable };

  EnforcementPlane(const SegmentMap& segments, const ReachabilityPolicy& policy,
                   RuleCompilerKind kind);

  /// Evaluates a connection summary at the local VM's NIC.
  Verdict check(const ConnectionSummary& record) const;

  const VmRuleTable* table(IpAddr vm) const;
  std::uint64_t total_rules() const;
  RuleCompilerKind kind() const { return kind_; }

 private:
  const SegmentMap* segments_;
  RuleCompilerKind kind_;
  std::unordered_map<IpAddr, VmRuleTable> tables_;
};

}  // namespace ccg
