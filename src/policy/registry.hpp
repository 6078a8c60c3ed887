// Generic self-describing policy registry: one mechanism for every
// pluggable decision surface in the system.
//
// The paper's deflation mechanism is one point in a large policy space —
// placement scoring, shard routing, migration strategy, revocation
// modeling and admission bidding are all swappable decisions. Before this
// layer each surface hand-rolled its own dispatch (an `enum class` plus a
// switch, a name parser per tool); only admission policies were
// pluggable, through the admission service's own registry.
// `PolicyRegistry<Surface>` generalizes that registry: a typed,
// process-wide, self-describing catalog of named policies with
// descriptions and parameter metadata, link-time plugin registration,
// and exhaustive enumeration (the `deflatectl list-policies` /
// Hello-frame surface).
//
// A *surface* is a traits struct describing one decision point:
//
//   struct ShardSelectionSurface {
//     static constexpr const char* kSurfaceName = "shard-selection";
//     static constexpr const char* kSurfaceDescription = "...";
//     using Factory = std::function<std::unique_ptr<ShardSelector>()>;
//     static void register_builtins(policy::PolicyRegistry<ShardSelectionSurface>&);
//   };
//
// `register_builtins` is invoked exactly once, from the registry's own
// constructor, so the built-in names never depend on static-initialization
// order across translation units. Plugins register at link time through
// `PolicyRegistration<Surface>` at namespace scope; registration and
// lookup are mutex-guarded and the singleton is a Meyers static, so
// concurrent daemon connections (and TSan) see a consistent registry.
//
// Thread-safety / pointer-stability contract: entries are heap-allocated
// and never removed, so a `const Entry*` returned by `find()` stays valid
// for the life of the process even while other threads register plugins.
#pragma once

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace deflate::policy {

/// Declarative description of one numeric knob a policy understands
/// (resolution of a PolicySet validates parameter names against these).
struct ParamSpec {
  std::string name;
  std::string description;
  double default_value = 0.0;
};

template <typename Surface>
class PolicyRegistry {
 public:
  using Factory = typename Surface::Factory;

  struct Entry {
    /// Primary name (the CLI / PolicySet / wire vocabulary).
    std::string name;
    /// One-line human description (list-policies, Hello self-description).
    std::string description;
    /// Alternate accepted spellings (e.g. "power-of-two" for "p2c").
    /// Aliases resolve through find() but are not enumerated by names().
    std::vector<std::string> aliases;
    /// Numeric knobs the policy understands (PolicySet params).
    std::vector<ParamSpec> params;
    /// Builds the policy object; the surface defines the signature.
    Factory make;
  };

  /// The process-wide registry for this surface, built-ins pre-registered
  /// by Surface::register_builtins. Initialization-order safe (Meyers
  /// singleton) and thread-safe for concurrent first use.
  [[nodiscard]] static PolicyRegistry& instance() {
    static PolicyRegistry registry;
    return registry;
  }

  /// Registers a policy; returns false (and changes nothing) when the
  /// name is empty, the factory is null, or the name or any alias
  /// collides with an already-registered name or alias.
  bool add(Entry entry) {
    if (entry.name.empty() || !entry.make) return false;
    std::scoped_lock lock(mutex_);
    if (find_locked(entry.name) != nullptr) return false;
    for (const std::string& alias : entry.aliases) {
      if (alias.empty() || find_locked(alias) != nullptr) return false;
    }
    entries_.push_back(std::make_unique<Entry>(std::move(entry)));
    return true;
  }

  /// Convenience registration for the common case (no designated-init
  /// boilerplate for empty alias/param lists).
  bool add(std::string name, std::string description, Factory make,
           std::vector<std::string> aliases = {},
           std::vector<ParamSpec> params = {}) {
    Entry entry;
    entry.name = std::move(name);
    entry.description = std::move(description);
    entry.aliases = std::move(aliases);
    entry.params = std::move(params);
    entry.make = std::move(make);
    return add(std::move(entry));
  }

  /// Looks a policy up by primary name or alias; nullptr when unknown.
  /// The returned pointer stays valid for the life of the process.
  [[nodiscard]] const Entry* find(const std::string& name) const {
    std::scoped_lock lock(mutex_);
    return find_locked(name);
  }

  /// Registered primary names, sorted (the enumeration vocabulary of
  /// list-policies, the Hello frame and error messages).
  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    {
      std::scoped_lock lock(mutex_);
      out.reserve(entries_.size());
      for (const auto& entry : entries_) out.push_back(entry->name);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Snapshot of every registered entry, in registration order.
  [[nodiscard]] std::vector<Entry> entries() const {
    std::vector<Entry> out;
    std::scoped_lock lock(mutex_);
    out.reserve(entries_.size());
    for (const auto& entry : entries_) out.push_back(*entry);
    return out;
  }

  [[nodiscard]] std::size_t size() const {
    std::scoped_lock lock(mutex_);
    return entries_.size();
  }

 private:
  PolicyRegistry() { Surface::register_builtins(*this); }

  [[nodiscard]] const Entry* find_locked(const std::string& name) const {
    for (const auto& entry : entries_) {
      if (entry->name == name) return entry.get();
      for (const std::string& alias : entry->aliases) {
        if (alias == name) return entry.get();
      }
    }
    return nullptr;
  }

  /// Guards entries_ against concurrent add/find from daemon connection
  /// handlers and link-time plugin registration.
  mutable std::mutex mutex_;
  /// Heap entries, never erased: find() pointers are stable across adds.
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// Link-time plugin registration: a namespace-scope instance registers the
/// entry before main() without the daemon (or simulator) naming the plugin
/// anywhere in its dispatch code.
///
///   const policy::PolicyRegistration<cluster::ShardSelectionSurface>
///       kRegisterFirstShard{{.name = "first-shard", ...}};
template <typename Surface>
struct PolicyRegistration {
  explicit PolicyRegistration(typename PolicyRegistry<Surface>::Entry entry) {
    registered = PolicyRegistry<Surface>::instance().add(std::move(entry));
  }
  /// False when the name collided with an existing registration.
  bool registered = false;
};

/// "a|b|c" over the registry's sorted names — the one-line error-message
/// vocabulary shared by every CLI flag parser.
template <typename Surface>
[[nodiscard]] std::string joined_policy_names() {
  std::string out;
  for (const std::string& name : PolicyRegistry<Surface>::instance().names()) {
    if (!out.empty()) out += '|';
    out += name;
  }
  return out;
}

}  // namespace deflate::policy
