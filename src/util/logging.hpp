// Minimal leveled logger.
//
// Simulation code logs through IPOP_LOG_* macros; the level check is a
// single branch so packet-path logging costs nothing when disabled.
#pragma once

#include <sstream>
#include <string>

namespace ipop::util {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

class Logger {
 public:
  static Logger& instance();

  LogLevel level() const { return level_; }
  void set_level(LogLevel lvl) { level_ = lvl; }
  bool enabled(LogLevel lvl) const { return lvl >= level_; }

  /// Writes one line to stderr.
  void write(LogLevel lvl, const std::string& msg);

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::kWarn;
};

const char* log_level_name(LogLevel lvl);

}  // namespace ipop::util

#define IPOP_LOG_AT(lvl, expr)                                        \
  do {                                                                \
    auto& ipop_logger = ::ipop::util::Logger::instance();             \
    if (ipop_logger.enabled(lvl)) {                                   \
      std::ostringstream ipop_log_os;                                 \
      ipop_log_os << expr;                                            \
      ipop_logger.write(lvl, ipop_log_os.str());                      \
    }                                                                 \
  } while (0)

#define IPOP_LOG_TRACE(expr) IPOP_LOG_AT(::ipop::util::LogLevel::kTrace, expr)
#define IPOP_LOG_DEBUG(expr) IPOP_LOG_AT(::ipop::util::LogLevel::kDebug, expr)
#define IPOP_LOG_INFO(expr) IPOP_LOG_AT(::ipop::util::LogLevel::kInfo, expr)
#define IPOP_LOG_WARN(expr) IPOP_LOG_AT(::ipop::util::LogLevel::kWarn, expr)
#define IPOP_LOG_ERROR(expr) IPOP_LOG_AT(::ipop::util::LogLevel::kError, expr)
