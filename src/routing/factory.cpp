#include "routing/factory.hpp"

#include <stdexcept>
#include <utility>

#include "routing/cr.hpp"
#include "routing/delegation.hpp"
#include "routing/direct_delivery.hpp"
#include "routing/ebr.hpp"
#include "routing/eer.hpp"
#include "routing/epidemic.hpp"
#include "routing/first_contact.hpp"
#include "routing/maxprop.hpp"
#include "routing/meed.hpp"
#include "routing/prophet.hpp"
#include "routing/spray_and_focus.hpp"
#include "routing/spray_and_wait.hpp"

namespace dtn::routing {

namespace {

struct Entry {
  std::string name;
  ProtocolFactory factory;
};

std::vector<Entry>& registry() {
  static std::vector<Entry> entries = [] {
    std::vector<Entry> e;
    e.push_back({"EER", [](const ProtocolConfig& config) -> std::unique_ptr<sim::Router> {
                   EerParams p;
                   p.copies = config.copies;
                   p.alpha = config.alpha;
                   p.window = config.window;
                   return std::make_unique<EerRouter>(p);
                 }});
    e.push_back({"CR", [](const ProtocolConfig& config) -> std::unique_ptr<sim::Router> {
                   if (!config.communities) {
                     throw std::invalid_argument("CR requires a community table");
                   }
                   CrParams p;
                   p.copies = config.copies;
                   p.alpha = config.alpha;
                   p.window = config.window;
                   return std::make_unique<CrRouter>(p, config.communities);
                 }});
    e.push_back({"EBR", [](const ProtocolConfig& config) -> std::unique_ptr<sim::Router> {
                   EbrParams p;
                   p.copies = config.copies;
                   return std::make_unique<EbrRouter>(p);
                 }});
    e.push_back({"MaxProp", [](const ProtocolConfig&) -> std::unique_ptr<sim::Router> {
                   return std::make_unique<MaxPropRouter>(MaxPropParams{});
                 }});
    e.push_back(
        {"SprayAndWait", [](const ProtocolConfig& config) -> std::unique_ptr<sim::Router> {
           SprayAndWaitParams p;
           p.copies = config.copies;
           return std::make_unique<SprayAndWaitRouter>(p);
         }});
    e.push_back(
        {"SprayAndFocus", [](const ProtocolConfig& config) -> std::unique_ptr<sim::Router> {
           SprayAndFocusParams p;
           p.copies = config.copies;
           return std::make_unique<SprayAndFocusRouter>(p);
         }});
    e.push_back({"Epidemic", [](const ProtocolConfig&) -> std::unique_ptr<sim::Router> {
                   return std::make_unique<EpidemicRouter>();
                 }});
    e.push_back({"DirectDelivery", [](const ProtocolConfig&) -> std::unique_ptr<sim::Router> {
                   return std::make_unique<DirectDeliveryRouter>();
                 }});
    e.push_back({"PRoPHET", [](const ProtocolConfig&) -> std::unique_ptr<sim::Router> {
                   return std::make_unique<ProphetRouter>(ProphetParams{});
                 }});
    e.push_back({"MEED", [](const ProtocolConfig& config) -> std::unique_ptr<sim::Router> {
                   MeedParams p;
                   p.window = config.window;
                   return std::make_unique<MeedRouter>(p);
                 }});
    e.push_back({"FirstContact", [](const ProtocolConfig&) -> std::unique_ptr<sim::Router> {
                   return std::make_unique<FirstContactRouter>();
                 }});
    e.push_back({"Delegation", [](const ProtocolConfig&) -> std::unique_ptr<sim::Router> {
                   return std::make_unique<DelegationRouter>();
                 }});
    return e;
  }();
  return entries;
}

}  // namespace

std::vector<std::string> known_protocols() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& e : registry()) names.push_back(e.name);
  return names;
}

bool is_known_protocol(const std::string& name) {
  for (const auto& e : registry()) {
    if (e.name == name) return true;
  }
  return false;
}

void register_protocol(const std::string& name, ProtocolFactory factory) {
  for (auto& e : registry()) {
    if (e.name == name) {
      e.factory = std::move(factory);
      return;
    }
  }
  registry().push_back({name, std::move(factory)});
}

std::unique_ptr<sim::Router> create_router(const ProtocolConfig& config) {
  for (const auto& e : registry()) {
    if (e.name == config.name) return e.factory(config);
  }
  throw std::invalid_argument("unknown protocol: " + config.name);
}

}  // namespace dtn::routing
