"""The measurement calendar: campaign weeks and their selections."""

from repro.campaign.schedule import DEFAULT_CAMPAIGN, CalendarWeek, Campaign

__all__ = ["Campaign", "CalendarWeek", "DEFAULT_CAMPAIGN"]
