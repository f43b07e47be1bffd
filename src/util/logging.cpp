#include "util/logging.hpp"

#include <cstdio>

namespace ipop::util {

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::write(LogLevel lvl, const std::string& msg) {
  std::fprintf(stderr, "[%s] %s\n", log_level_name(lvl), msg.c_str());
}

const char* log_level_name(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace ipop::util
