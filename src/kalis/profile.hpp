// Deployment-profile generation — the paper's §VIII future-work vision:
// "selecting a specific module configuration — based on the knowledge
// collected by Kalis in a network — and deploy[ing] that configuration at
// compile-time on very small devices such as WSN nodes".
//
// Given a populated Knowledge Base (from a learning run) and the module
// registry, the generator computes the minimal module set whose services
// the network's features actually require, estimates its footprint, and
// emits (a) a Fig. 6-syntax configuration file freezing that set plus the
// learned static knowggets, and (b) a build manifest a firmware build could
// consume to compile only those modules in.
#pragma once

#include <string>
#include <vector>

#include "kalis/config.hpp"
#include "kalis/knowledge.hpp"
#include "kalis/module_registry.hpp"

namespace kalis::ids {

struct DeploymentProfile {
  std::vector<std::string> modules;        ///< minimal required set
  std::vector<std::string> excluded;       ///< library modules ruled out
  KalisConfig config;                      ///< frozen config (modules + knowggets)
  std::size_t estimatedFootprintBytes = 0; ///< module state estimate
};

/// Computes the profile for the network described by `kb`: the detection
/// modules it requires (sensing modules are dropped: a constrained
/// deployment does not re-learn its features) and the node's own feature
/// knowggets the activation predicates consume, frozen as a-priori
/// knowledge.
DeploymentProfile generateProfile(const KnowledgeBase& kb,
                                  const ModuleRegistry& registry);

/// Renders the build manifest: one "module <name>" line per compiled-in
/// module plus the frozen feature summary, '#'-commented header.
std::string formatBuildManifest(const DeploymentProfile& profile);

}  // namespace kalis::ids
