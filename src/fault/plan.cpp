#include "fault/plan.hpp"

namespace pcd::fault {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::NodeCrash: return "node_crash";
    case FaultKind::Straggler: return "straggler";
    case FaultKind::StuckDvs: return "stuck_dvs";
    case FaultKind::NicDegrade: return "nic_degrade";
    case FaultKind::LinkFlap: return "link_flap";
    case FaultKind::BatteryFail: return "battery_fail";
    case FaultKind::SensorDropout: return "sensor_dropout";
    case FaultKind::DaemonWedge: return "daemon_wedge";
  }
  return "?";
}

FaultEvent node_crash(double at_s, int node, double boot_delay_s) {
  FaultEvent e;
  e.at_s = at_s;
  e.kind = FaultKind::NodeCrash;
  e.node = node;
  e.boot_delay_s = boot_delay_s;
  return e;
}

FaultEvent straggler(double at_s, int node, double efficiency, double duration_s) {
  FaultEvent e;
  e.at_s = at_s;
  e.kind = FaultKind::Straggler;
  e.node = node;
  e.magnitude = efficiency;
  e.duration_s = duration_s;
  return e;
}

FaultEvent stuck_dvs(double at_s, int node, double duration_s) {
  FaultEvent e;
  e.at_s = at_s;
  e.kind = FaultKind::StuckDvs;
  e.node = node;
  e.duration_s = duration_s;
  return e;
}

FaultEvent nic_degrade(double at_s, double bandwidth_factor, double collision_boost,
                       double duration_s) {
  FaultEvent e;
  e.at_s = at_s;
  e.kind = FaultKind::NicDegrade;
  e.node = -1;
  e.magnitude = bandwidth_factor;
  e.collision_boost = collision_boost;
  e.duration_s = duration_s;
  return e;
}

FaultEvent link_flap(double at_s, int node, double duration_s) {
  FaultEvent e;
  e.at_s = at_s;
  e.kind = FaultKind::LinkFlap;
  e.node = node;
  e.duration_s = duration_s;
  return e;
}

FaultEvent battery_fail(double at_s, int node, double remaining_fraction) {
  FaultEvent e;
  e.at_s = at_s;
  e.kind = FaultKind::BatteryFail;
  e.node = node;
  e.magnitude = remaining_fraction;
  return e;
}

FaultEvent sensor_dropout(double at_s, int node, SensorMode mode, double duration_s) {
  FaultEvent e;
  e.at_s = at_s;
  e.kind = FaultKind::SensorDropout;
  e.node = node;
  e.sensor = mode;
  e.duration_s = duration_s;
  return e;
}

FaultEvent daemon_wedge(double at_s, int node) {
  FaultEvent e;
  e.at_s = at_s;
  e.kind = FaultKind::DaemonWedge;
  e.node = node;
  return e;
}

}  // namespace pcd::fault
